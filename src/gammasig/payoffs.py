"""Path functionals on log-price paths: realized variance/volatility,
covariance, correlation, and swap/call payoffs on them.

Conventions: paths carry log-prices X^i = log S^i as base columns on the
payoff grid.  Realized statistics are plain sums over grid increments:

    RVar_i = sum (dX^i)^2            RV_i  = sqrt(RVar_i)
    Cov_ij = sum dX^i dX^j           Corr_ij = Cov_ij / (RV_i RV_j)

Swap payoffs pay statistic - strike, calls pay (statistic - strike)^+.
Note the variance/volatility split: RVswap settles on RVar (variance),
RVcall settles on RV (volatility); their strikes are resolved separately.
The caller passes the sums in: the end row of the signature module's
Follmer bracket columns, so RVar equals the left-point quadratic variation
bit for bit.

There is one implementation of each, both on batches:
:func:`realized_stats_batch` for the statistics and :func:`payoff_values`
for the payoffs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import bracket_pairs

__all__ = [
    "PayoffSpec",
    "realized_stats_batch",
    "payoff_values",
    "statistic_key",
]

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
        if self.kind not in _KIND_STAT:
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


def payoff_values(spec: PayoffSpec, stat: np.ndarray) -> np.ndarray:
    """Payoff values of a batch of settlement statistics: stat - strike for
    swaps, its positive part for calls."""
    values = np.asarray(stat, dtype=np.float64) - spec.strike
    return np.maximum(values, 0.0) if spec.is_call else values


def realized_stats_batch(sums: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized statistics of a batch of log-price paths.

    ``sums`` has shape (B, d(d+1)/2): each path's Follmer sums
    sum_k dX^i_k dX^j_k in :func:`bracket_pairs` order, the end row of
    ``signature.bracket_columns``; another width is a ``ValueError``.
    Returns per-asset "RVar_i" and "RV_i" arrays plus "Cov_ij"/"Corr_ij" for
    every pair i < j; correlation entries are NaN where a realized variance
    vanishes (callers decide how to treat degenerate paths).
    """
    sums = np.asarray(sums, dtype=np.float64)
    d = math.isqrt(2 * sums.shape[1]) if sums.ndim == 2 else 0  # d(d+1)/2 columns
    if d < 1 or d * (d + 1) // 2 != sums.shape[1]:
        raise ValueError(f"Follmer sums (B, d(d+1)/2) required, got {sums.shape}")
    # copy, so that no returned array keeps the caller's bracket block alive
    by_pair = dict(zip(bracket_pairs(d), sums.T.copy()))

    out: dict[str, np.ndarray] = {}
    for i in range(d):
        out[f"RVar_{i + 1}"] = by_pair[(i, i)]
        out[f"RV_{i + 1}"] = np.sqrt(by_pair[(i, i)])
    for i in range(d):
        for j in range(i + 1, d):
            cov = by_pair[(i, j)]
            out[f"Cov_{i + 1}{j + 1}"] = cov
            denom = out[f"RV_{i + 1}"] * out[f"RV_{j + 1}"]
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(denom > 0.0, cov / denom, np.nan)
            out[f"Corr_{i + 1}{j + 1}"] = corr
    return out
