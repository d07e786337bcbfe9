"""Reproducible path simulators: Heston (1 and 2 assets), Cantor-clock SDEs,
correlated Gaussian draws, and the Cantor function.

Reproducibility model: every path gets its own counter-based RNG stream,
``numpy.random.Philox`` keyed by ``(master_seed, path_index)``.  A path is a
pure function of (params, grid, path_index, master_seed), independent of how
many paths are drawn together or in what order; the batched simulators below
apply identical elementwise arithmetic and are bit-identical to the
single-path API.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signature import SamplePath, cumsum0
from .tensor import Alphabet

__all__ = [
    "SimGrid",
    "HestonParams",
    "Heston2Params",
    "CantorParams",
    "path_rng",
    "cantor_function",
    "correlated_normals",
    "simulate_heston",
    "simulate_heston_batch",
    "simulate_heston2",
    "simulate_heston2_batch",
    "simulate_cantor_sde",
    "simulate_cantor_sde_batch",
]

#: Degenerate-variance floor for driver recovery: steps with sqrt(V) at or
#: below this are skipped (zero increment) and counted.
SQRT_V_FLOOR = 1e-12


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid [0, T] with n steps and a 64-bit master seed."""

    T: float
    n: int
    master_seed: int

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0 <= int(self.master_seed) < 2 ** 64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)

    def to_json_dict(self) -> dict:
        return {"T": self.T, "n": self.n, "master_seed": self.master_seed}

    @classmethod
    def from_json_dict(cls, data) -> "SimGrid":
        return cls(T=float(data["T"]), n=int(data["n"]),
                   master_seed=int(data["master_seed"]))


@dataclass(frozen=True)
class HestonParams:
    """dS = mu*S dt + S*sqrt(V) dW,  dV = kappa*(theta - V) dt + sigma*sqrt(V) dB,
    corr(dW, dB) = rho."""

    s0: float
    v0: float
    mu: float
    kappa: float
    theta: float
    sigma: float
    rho: float

    def __post_init__(self) -> None:
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        for name in ("v0", "kappa", "theta", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("s0", "v0", "mu", "kappa", "theta", "sigma", "rho")}

    @classmethod
    def from_json_dict(cls, data) -> "HestonParams":
        return cls(**{k: float(data[k]) for k in
                      ("s0", "v0", "mu", "kappa", "theta", "sigma", "rho")})


@dataclass(frozen=True)
class Heston2Params:
    """Two Heston assets with jointly correlated drivers (B1, B2, W1, W2).

    B^i drives prices, W^i drives variances; ``corr4`` is the 4x4
    correlation matrix in that driver order and is the single source of
    truth for all correlations (the per-asset ``rho`` fields are ignored
    here).  The matrix must be symmetric, unit-diagonal, and PSD; an
    incomplete correlation spec is completed with zeros by ``build``.
    """

    asset1: HestonParams
    asset2: HestonParams
    corr4: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        corr = np.asarray(self.corr4, dtype=np.float64)
        if corr.shape != (4, 4):
            raise ValueError("corr4 must be 4x4")
        _validate_correlation(corr)
        object.__setattr__(self, "corr4",
                           tuple(tuple(float(x) for x in row) for row in corr))

    @property
    def corr_matrix(self) -> np.ndarray:
        return np.asarray(self.corr4, dtype=np.float64)

    @classmethod
    def build(cls, asset1: HestonParams, asset2: HestonParams,
              corr_b1b2: float, corr_w1w2: float,
              corr_b1w1: float, corr_b2w2: float,
              corr_b1w2: float = 0.0, corr_b2w1: float = 0.0) -> "Heston2Params":
        """Assemble corr4 from pairwise correlations (unspecified cross pairs
        default to 0); fails if the completed matrix is not PSD."""
        corr = np.array([
            [1.0, corr_b1b2, corr_b1w1, corr_b1w2],
            [corr_b1b2, 1.0, corr_b2w1, corr_b2w2],
            [corr_b1w1, corr_b2w1, 1.0, corr_w1w2],
            [corr_b1w2, corr_b2w2, corr_w1w2, 1.0],
        ])
        return cls(asset1, asset2, tuple(map(tuple, corr)))

    def to_json_dict(self) -> dict:
        return {"asset1": self.asset1.to_json_dict(),
                "asset2": self.asset2.to_json_dict(),
                "corr4": [list(row) for row in self.corr4]}

    @classmethod
    def from_json_dict(cls, data) -> "Heston2Params":
        return cls(HestonParams.from_json_dict(data["asset1"]),
                   HestonParams.from_json_dict(data["asset2"]),
                   tuple(tuple(float(x) for x in row) for row in data["corr4"]))


@dataclass(frozen=True)
class CantorParams:
    """dS^i = sigma_i(S^i) dW^i_{C(t)} under the Cantor clock C.

    ``vol_kind`` selects the diffusion coefficient: "tanh" gives
    sigma(x) = 1 + 0.3*tanh(x), "linear" gives sigma_i(x) = nu_i * x.
    ``rho`` correlates the Gaussian increments across assets.
    """

    s0: tuple[float, ...]
    vol_kind: str = "tanh"
    nu: tuple[float, ...] | None = None
    rho: float = 0.0
    cantor_depth: int = 40

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", tuple(float(x) for x in (
            (self.s0,) if np.isscalar(self.s0) else self.s0)))
        if self.vol_kind not in ("tanh", "linear"):
            raise ValueError(f"unknown vol_kind {self.vol_kind!r}")
        if self.vol_kind == "linear":
            if self.nu is None:
                raise ValueError("vol_kind 'linear' requires nu")
            object.__setattr__(self, "nu", tuple(float(x) for x in (
                (self.nu,) if np.isscalar(self.nu) else self.nu)))
            if len(self.nu) != len(self.s0):
                raise ValueError("nu must have one entry per asset")
        if self.cantor_depth < 20:
            raise ValueError("cantor_depth must be >= 20")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")

    def vol(self, s: np.ndarray, asset: int) -> np.ndarray:
        if self.vol_kind == "tanh":
            return 1.0 + 0.3 * np.tanh(s)
        return self.nu[asset] * s

    def to_json_dict(self) -> dict:
        return {"s0": list(self.s0), "vol_kind": self.vol_kind,
                "nu": None if self.nu is None else list(self.nu),
                "rho": self.rho, "cantor_depth": self.cantor_depth}

    @classmethod
    def from_json_dict(cls, data) -> "CantorParams":
        return cls(s0=tuple(data["s0"]), vol_kind=data["vol_kind"],
                   nu=None if data.get("nu") is None else tuple(data["nu"]),
                   rho=float(data.get("rho", 0.0)),
                   cantor_depth=int(data.get("cantor_depth", 40)))


# ---------------------------------------------------------------------------
# RNG streams and correlated draws
# ---------------------------------------------------------------------------

def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based per-path stream: Philox keyed by (master_seed, path_index)."""
    key = np.array([master_seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _validate_correlation(corr: np.ndarray) -> None:
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.all(np.isfinite(corr)):
        raise ValueError("correlation matrix must be finite")
    if not np.allclose(corr, corr.T, atol=1e-12, rtol=0.0):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12, rtol=0.0):
        raise ValueError("correlation matrix must have unit diagonal")
    min_eig = float(np.linalg.eigvalsh(corr)[0])
    if min_eig < -1e-10:
        raise ValueError(
            f"correlation matrix is not positive semidefinite: "
            f"minimum eigenvalue {min_eig:.3e}")


def _corr_factor(corr: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor; for PSD-singular matrices falls back
    to the symmetric eigenvalue square root (still A @ A.T = corr)."""
    _validate_correlation(corr)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(corr)
        return V * np.sqrt(np.clip(w, 0.0, None))


def correlated_normals(corr: np.ndarray, count: int,
                       seed: int | tuple[int, int] | np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. rows of N(0, corr) via the lower-triangular factor.

    ``seed`` may be a Generator, a plain integer, or a (master_seed,
    stream_index) pair for a dedicated Philox stream.  A matrix that is not
    PSD within 1e-10 raises (no silent repair).
    """
    corr = np.asarray(corr, dtype=np.float64)
    L = _corr_factor(corr)
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif isinstance(seed, tuple):
        rng = path_rng(*seed)
    else:
        rng = path_rng(int(seed), 0)
    z = rng.standard_normal((int(count), corr.shape[0]))
    return z @ L.T


# ---------------------------------------------------------------------------
# Cantor function
# ---------------------------------------------------------------------------

def cantor_function(x, depth: int = 40):
    """Cantor (devil's staircase) function on [0, 1] via ternary digits.

    Scan base-3 digits of x up to the first digit equal to 1 (inclusive) or
    ``depth`` digits, map 0 -> 0, 2 -> 1, terminal 1 -> 1, and read the
    result base 2.  Monotone non-decreasing with C(0) = 0, C(1) = 1,
    constant on the removed middle-third intervals; digit truncation gives
    absolute error at most 2**-depth (plus float ternary-digit jitter for
    inputs that are not exactly representable).
    """
    scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("cantor_function requires x in [0, 1]")
    r = arr.copy()
    out = np.zeros_like(arr)
    active = np.ones(arr.shape, dtype=bool)
    w = 0.5
    for _ in range(depth):
        r *= 3.0
        digit = np.clip(np.floor(r), 0.0, 2.0)
        r -= digit
        hit_one = active & (digit == 1.0)
        out[hit_one | (active & (digit == 2.0))] += w
        active &= ~hit_one
        w *= 0.5
    out[arr == 1.0] = 1.0
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# Heston simulators
# ---------------------------------------------------------------------------

def _stack_draws(grid: SimGrid, path_indices: Sequence[int], width: int) -> np.ndarray:
    draws = np.empty((len(path_indices), grid.n, width))
    for b, idx in enumerate(path_indices):
        draws[b] = path_rng(grid.master_seed, idx).standard_normal((grid.n, width))
    return draws


def _heston_euler(params: HestonParams, grid: SimGrid,
                  z: np.ndarray) -> dict[str, np.ndarray]:
    """Full-truncation Euler for a batch; z has shape (B, n, 2)."""
    B, n, _ = z.shape
    dt = grid.dt
    sqdt = np.sqrt(dt)
    rho = params.rho
    dW = sqdt * z[:, :, 0]
    dB = sqdt * (rho * z[:, :, 0] + np.sqrt(1.0 - rho * rho) * z[:, :, 1])
    S = np.empty((B, n + 1))
    V = np.empty((B, n + 1))
    S[:, 0] = params.s0
    V[:, 0] = params.v0
    for k in range(n):
        sqv = np.sqrt(V[:, k])  # stored V is already floored at 0
        S[:, k + 1] = S[:, k] + params.mu * S[:, k] * dt + S[:, k] * sqv * dW[:, k]
        V[:, k + 1] = np.maximum(
            V[:, k] + params.kappa * (params.theta - V[:, k]) * dt
            + params.sigma * sqv * dB[:, k], 0.0)
    # driver recovery from the simulated series: dW_Q = dS/(S*sqrt(V)),
    # dB_Q = dV/(sigma*sqrt(V)), left-point S and V, degenerate steps skipped
    sqv_left = np.sqrt(V[:, :-1])
    deg = sqv_left <= SQRT_V_FLOOR
    safe = np.where(deg, 1.0, sqv_left)
    dS = np.diff(S, axis=1)
    dV = np.diff(V, axis=1)
    dWQ = np.where(deg, 0.0, dS / (S[:, :-1] * safe))
    if params.sigma > 0.0:
        dBQ = np.where(deg, 0.0, dV / (params.sigma * safe))
        deg_count = deg.sum(axis=1)
    else:
        dBQ = np.zeros_like(dV)
        deg_count = np.full(B, n)
    return {"S": S, "V": V, "W": cumsum0(dW, axis=1), "B": cumsum0(dB, axis=1),
            "W_Q": cumsum0(dWQ, axis=1), "B_Q": cumsum0(dBQ, axis=1),
            "degenerate_steps": deg_count}


_HESTON_NAMES = ("S", "V", "W", "B", "W_Q", "B_Q")


def simulate_heston_batch(params: HestonParams, grid: SimGrid,
                          path_indices: Sequence[int]) -> list[SamplePath]:
    """Batched :func:`simulate_heston`; bit-identical to per-path calls."""
    z = _stack_draws(grid, path_indices, 2)
    res = _heston_euler(params, grid, z)
    times = grid.times
    alphabet = Alphabet(len(_HESTON_NAMES))
    out = []
    for b in range(len(path_indices)):
        values = np.column_stack([res[name][b] for name in _HESTON_NAMES])
        out.append(SamplePath(times, values, alphabet, _HESTON_NAMES,
                              {"degenerate_steps": int(res["degenerate_steps"][b])}))
    return out


def simulate_heston(params: HestonParams, grid: SimGrid, path_index: int) -> SamplePath:
    """One Heston path with columns (S, V, W, B, W_Q, B_Q).

    W, B are the cumulated input drivers; W_Q, B_Q are the drivers recovered
    from the simulated series by dW_Q = dS/(S*sqrt(V)), dB_Q =
    dV/(sigma*sqrt(V)) (left-point evaluation), with degenerate steps
    (sqrt(V) <= 1e-12) skipped, carried forward, and counted in
    ``meta["degenerate_steps"]``.
    """
    return simulate_heston_batch(params, grid, [path_index])[0]


def _heston2_euler(params: Heston2Params, grid: SimGrid,
                   z: np.ndarray) -> dict[str, np.ndarray]:
    """z has shape (B, n, 4); driver order (B1, B2, W1, W2)."""
    B, n, _ = z.shape
    dt = grid.dt
    L = _corr_factor(params.corr_matrix)
    dD = np.sqrt(dt) * np.einsum("bnk,jk->bnj", z, L)
    a = (params.asset1, params.asset2)
    out: dict[str, np.ndarray] = {}
    for i, p in enumerate(a):
        dB = dD[:, :, i]       # price driver B^i
        dW = dD[:, :, 2 + i]   # variance driver W^i
        S = np.empty((B, n + 1))
        V = np.empty((B, n + 1))
        S[:, 0] = p.s0
        V[:, 0] = p.v0
        for k in range(n):
            sqv = np.sqrt(V[:, k])
            S[:, k + 1] = S[:, k] + p.mu * S[:, k] * dt + S[:, k] * sqv * dB[:, k]
            V[:, k + 1] = np.maximum(
                V[:, k] + p.kappa * (p.theta - V[:, k]) * dt
                + p.sigma * sqv * dW[:, k], 0.0)
        out[f"S{i + 1}"] = S
        out[f"V{i + 1}"] = V
    return out


_HESTON2_NAMES = ("S1", "S2", "V1", "V2")


def simulate_heston2_batch(params: Heston2Params, grid: SimGrid,
                           path_indices: Sequence[int]) -> list[SamplePath]:
    z = _stack_draws(grid, path_indices, 4)
    res = _heston2_euler(params, grid, z)
    times = grid.times
    alphabet = Alphabet(len(_HESTON2_NAMES))
    return [SamplePath(times,
                       np.column_stack([res[name][b] for name in _HESTON2_NAMES]),
                       alphabet, _HESTON2_NAMES)
            for b in range(len(path_indices))]


def simulate_heston2(params: Heston2Params, grid: SimGrid, path_index: int) -> SamplePath:
    """One two-asset Heston path with columns (S1, S2, V1, V2)."""
    return simulate_heston2_batch(params, grid, [path_index])[0]


# ---------------------------------------------------------------------------
# Cantor-clock SDE
# ---------------------------------------------------------------------------

def _cantor_euler(params: CantorParams, grid: SimGrid, z: np.ndarray,
                  n_assets: int) -> dict[str, np.ndarray]:
    """z has shape (B, n, n_assets)."""
    B, n, _ = z.shape
    if grid.T > 1.0:
        raise ValueError("Cantor clock is defined on [0, 1]; need T <= 1")
    C = cantor_function(grid.times, params.cantor_depth)
    dC = np.clip(np.diff(C), 0.0, None)
    if n_assets == 2:
        rho = params.rho
        z2 = np.empty_like(z)
        z2[:, :, 0] = z[:, :, 0]
        z2[:, :, 1] = rho * z[:, :, 0] + np.sqrt(1.0 - rho * rho) * z[:, :, 1]
        z = z2
    dWC = np.sqrt(dC)[None, :, None] * z
    S = np.empty((B, n + 1, n_assets))
    for i in range(n_assets):
        S[:, 0, i] = params.s0[i]
    for k in range(n):
        for i in range(n_assets):
            S[:, k + 1, i] = S[:, k, i] + params.vol(S[:, k, i], i) * dWC[:, k, i]
    return {"S": S, "W_C": cumsum0(dWC, axis=1), "C": C}


def simulate_cantor_sde_batch(params: CantorParams, grid: SimGrid,
                              path_indices: Sequence[int],
                              n_assets: int = 1) -> list[SamplePath]:
    if n_assets not in (1, 2):
        raise ValueError("n_assets must be 1 or 2")
    if len(params.s0) != n_assets:
        raise ValueError(f"params carry {len(params.s0)} assets, requested {n_assets}")
    z = _stack_draws(grid, path_indices, n_assets)
    res = _cantor_euler(params, grid, z, n_assets)
    times = grid.times
    if n_assets == 1:
        names: tuple[str, ...] = ("S", "W_C", "C")
    else:
        names = ("S1", "S2", "W_C1", "W_C2", "C")
    alphabet = Alphabet(2 * n_assets + 1)
    out = []
    for b in range(len(path_indices)):
        cols = [res["S"][b, :, i] for i in range(n_assets)]
        cols += [res["W_C"][b, :, i] for i in range(n_assets)]
        cols.append(res["C"])
        out.append(SamplePath(times, np.column_stack(cols), alphabet, names))
    return out


def simulate_cantor_sde(params: CantorParams, grid: SimGrid, path_index: int,
                        n_assets: int = 1) -> SamplePath:
    """One Cantor-clock path: columns (S..., W_C..., C).

    The clock column C(t) is exact (ternary-digit evaluation), so it can
    serve directly as the bracket column of W_C in Ito augmentation
    ([W_C]_t = C(t) in the refinement limit).  Increments of W_C are
    N(0, dC), correlated across assets by rho; prices follow the Euler step
    S_{k+1} = S_k + sigma(S_k) * dW_C.
    """
    return simulate_cantor_sde_batch(params, grid, [path_index], n_assets)[0]
