"""Path functionals on log-price paths: realized variance/volatility,
covariance, correlation, and swap/call payoffs on them.

Conventions: paths carry log-prices X^i = log S^i as base columns on the
payoff grid.  Realized statistics are plain sums over grid increments:

    RVar_i = sum (dX^i)^2            RV_i  = sqrt(RVar_i)
    Cov_ij = sum dX^i dX^j           Corr_ij = Cov_ij / (RV_i RV_j)

Swap payoffs pay statistic - strike, calls pay (statistic - strike)^+.
Note the variance/volatility split: RVswap settles on RVar (variance),
RVcall settles on RV (volatility); their strikes are resolved separately.
The sums are the end values of the signature module's Follmer bracket
columns (the same accumulation primitive), so RVar equals the left-point
quadratic variation bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signature import SamplePath, bracket_columns, bracket_pairs, cumsum0

__all__ = [
    "PAYOFF_KINDS",
    "PayoffSpec",
    "realized_stats",
    "realized_stats_batch",
    "evaluate",
    "statistic_key",
]

PAYOFF_KINDS = ("RVswap", "RVcall", "CovSwap", "CovCall", "CorrSwap", "CorrCall")

#: Statistic each payoff kind settles on.
_KIND_STAT = {
    "RVswap": "RVar",
    "RVcall": "RV",
    "CovSwap": "Cov",
    "CovCall": "Cov",
    "CorrSwap": "Corr",
    "CorrCall": "Corr",
}


@dataclass(frozen=True)
class PayoffSpec:
    """One payoff: kind, asset indices (1-based), resolved strike."""

    kind: str
    assets: tuple[int, ...]
    strike: float

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        assets = tuple(int(a) for a in self.assets)
        object.__setattr__(self, "assets", assets)
        want = 1 if self.kind in ("RVswap", "RVcall") else 2
        if len(assets) != want or any(a < 1 for a in assets):
            raise ValueError(
                f"{self.kind} needs {want} valid asset index(es), got {assets}")
        if not np.isfinite(self.strike):
            raise ValueError("strike must be finite")

    @property
    def label(self) -> str:
        return self.kind + "_" + "".join(str(a) for a in self.assets)

    @property
    def is_call(self) -> bool:
        return self.kind.endswith("call") or self.kind.endswith("Call")


def statistic_key(kind: str, assets: Sequence[int]) -> str:
    """Strike-table key of the statistic a payoff settles on,
    e.g. ("RVcall", (2,)) -> "RV_2", ("CovSwap", (1, 2)) -> "Cov_12"."""
    return _KIND_STAT[kind] + "_" + "".join(str(a) for a in assets)


def _log_increments(path: SamplePath, asset: int) -> np.ndarray:
    if not path.alphabet.is_base(asset):
        raise ValueError(f"asset index {asset} is not a base column of the path")
    return np.diff(path.column(asset))


def _sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """sum_k a_k b_k, accumulated like the signature module's Follmer sums,
    so RVar matches the left-point quadratic variation end value bit for bit."""
    return float(cumsum0(a * b)[-1])


def realized_stats(path: SamplePath, i: int, j: int) -> tuple[float, float, float, float]:
    """(RVar_i, RV_i, Cov_ij, Corr_ij) over the path's grid increments.

    Correlation is undefined (domain error) when either realized variance
    vanishes; identical columns give Corr = 1 up to roundoff.
    """
    dxi = _log_increments(path, i)
    dxj = dxi if j == i else _log_increments(path, j)
    rvar_i = _sum_products(dxi, dxi)
    rvar_j = rvar_i if j == i else _sum_products(dxj, dxj)
    cov = _sum_products(dxi, dxj)
    if rvar_i == 0.0 or rvar_j == 0.0:
        raise ValueError(
            f"correlation undefined: zero realized variance (assets {i}, {j})")
    corr = cov / np.sqrt(rvar_i * rvar_j)
    return rvar_i, float(np.sqrt(rvar_i)), cov, float(corr)


def realized_stats_batch(log_values: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized statistics for a batch of log-price paths.

    ``log_values`` has shape (B, n+1, d).  Returns per-asset "RVar_i" and
    "RV_i" arrays plus "Cov_ij"/"Corr_ij" for every pair i < j; correlation
    entries are NaN where a realized variance vanishes (callers decide how
    to treat degenerate paths).
    """
    log_values = np.asarray(log_values, dtype=np.float64)
    d = log_values.shape[2]
    # copy the end row so the cumulative columns are freed on return
    sums = dict(zip(bracket_pairs(d), bracket_columns(log_values)[:, -1].T.copy()))

    out: dict[str, np.ndarray] = {}
    for i in range(d):
        rvar = sums[(i, i)]
        out[f"RVar_{i + 1}"] = rvar
        out[f"RV_{i + 1}"] = np.sqrt(rvar)
    for i in range(d):
        for j in range(i + 1, d):
            cov = sums[(i, j)]
            out[f"Cov_{i + 1}{j + 1}"] = cov
            denom = out[f"RV_{i + 1}"] * out[f"RV_{j + 1}"]
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(denom > 0.0, cov / denom, np.nan)
            out[f"Corr_{i + 1}{j + 1}"] = corr
    return out


def _statistic(spec: PayoffSpec, path: SamplePath) -> float:
    kind = _KIND_STAT[spec.kind]
    if kind in ("RVar", "RV"):
        i = spec.assets[0]
        dx = _log_increments(path, i)
        rvar = _sum_products(dx, dx)
        return rvar if kind == "RVar" else float(np.sqrt(rvar))
    i, j = spec.assets
    if kind == "Cov":
        return _sum_products(_log_increments(path, i), _log_increments(path, j))
    return realized_stats(path, i, j)[3]


def evaluate(spec: PayoffSpec, path: SamplePath) -> float:
    """Payoff value: statistic - strike for swaps, its positive part for calls."""
    value = _statistic(spec, path) - spec.strike
    return max(value, 0.0) if spec.is_call else value
