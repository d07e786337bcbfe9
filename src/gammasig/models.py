"""Reproducible path simulators: Heston (1 and 2 assets), Cantor-clock SDEs,
and the Cantor function.

Reproducibility model: every path gets its own counter-based RNG stream,
``numpy.random.Philox`` keyed by ``(master_seed, path_index)``.  A path is a
pure function of (params, grid, path_index, master_seed), independent of how
many paths are drawn together or in what order.

Each simulator takes a batch of path indices and returns the arrays of its
Euler kernel, one row per path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signature import cumsum0

__all__ = [
    "SimGrid",
    "HestonParams",
    "Heston2Params",
    "CantorParams",
    "path_rng",
    "cantor_function",
    "simulate_heston_batch",
    "simulate_heston2_batch",
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
        elif self.nu is not None:
            raise ValueError("vol_kind 'tanh' reads no 'nu': it must be None, "
                             f"got {self.nu!r}")
        if self.cantor_depth < 20:
            raise ValueError("cantor_depth must be >= 20")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")

    def vol(self, s: np.ndarray, asset: int) -> np.ndarray:
        if self.vol_kind == "tanh":
            return 1.0 + 0.3 * np.tanh(s)
        return self.nu[asset] * s


# ---------------------------------------------------------------------------
# RNG streams and the correlation factor
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
    """Standard normals (B, n, width); row b is what ``path_rng(master_seed,
    path_indices[b])`` draws first.  One Philox is re-keyed per path instead
    of a generator being built per path: a fresh stream is its key with a
    zero counter and an empty buffer, which is the state set here."""
    draws = np.empty((len(path_indices), grid.n, width))
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for b, idx in enumerate(path_indices):
        fresh["state"]["key"] = np.array([grid.master_seed, idx], dtype=np.uint64)
        bitgen.state = fresh
        draws[b] = gen.standard_normal((grid.n, width))
    return draws


def _heston_sv(params: HestonParams, dt: float, d_price: np.ndarray,
               d_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-truncation Euler of one Heston asset for a batch: price S and
    variance V of shape (B, n+1) from driver increments (B, n)."""
    B, n = d_price.shape
    S = np.empty((B, n + 1))
    V = np.empty((B, n + 1))
    S[:, 0] = params.s0
    V[:, 0] = params.v0
    for k in range(n):
        sqv = np.sqrt(V[:, k])  # stored V is already floored at 0
        S[:, k + 1] = S[:, k] + params.mu * S[:, k] * dt + S[:, k] * sqv * d_price[:, k]
        V[:, k + 1] = np.maximum(
            V[:, k] + params.kappa * (params.theta - V[:, k]) * dt
            + params.sigma * sqv * d_var[:, k], 0.0)
    return S, V


def _heston_euler(params: HestonParams, grid: SimGrid,
                  z: np.ndarray) -> dict[str, np.ndarray]:
    """Full-truncation Euler for a batch; z has shape (B, n, 2)."""
    B, n, _ = z.shape
    dt = grid.dt
    sqdt = np.sqrt(dt)
    rho = params.rho
    dW = sqdt * z[:, :, 0]
    dB = sqdt * (rho * z[:, :, 0] + np.sqrt(1.0 - rho * rho) * z[:, :, 1])
    S, V = _heston_sv(params, dt, dW, dB)
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
    return {"S": S, "V": V, "W_Q": cumsum0(dWQ, axis=1), "B_Q": cumsum0(dBQ, axis=1),
            "degenerate_steps": deg_count}


def simulate_heston_batch(params: HestonParams, grid: SimGrid,
                          path_indices: Sequence[int]) -> dict[str, np.ndarray]:
    """Heston paths, one row per entry of ``path_indices``: "S", "V", "W_Q",
    "B_Q" of shape (B, n+1) and "degenerate_steps" of shape (B,).

    W_Q, B_Q are the drivers recovered from the simulated series by dW_Q =
    dS/(S*sqrt(V)), dB_Q = dV/(sigma*sqrt(V)) (left-point evaluation), with
    degenerate steps (sqrt(V) <= 1e-12) skipped, carried forward, and counted
    in "degenerate_steps".  The input drivers are not returned; row b draws
    them from the first ``(n, 2)`` standard normals of
    ``path_rng(master_seed, path_indices[b])``.
    """
    return _heston_euler(params, grid, _stack_draws(grid, path_indices, 2))


def _heston2_euler(params: Heston2Params, grid: SimGrid,
                   z: np.ndarray) -> dict[str, np.ndarray]:
    """z has shape (B, n, 4); driver order (B1, B2, W1, W2)."""
    dt = grid.dt
    L = _corr_factor(params.corr_matrix)
    dD = np.sqrt(dt) * np.einsum("bnk,jk->bnj", z, L)
    out: dict[str, np.ndarray] = {}
    for i, p in enumerate((params.asset1, params.asset2)):
        # price driver B^i, variance driver W^i
        out[f"S{i + 1}"], out[f"V{i + 1}"] = _heston_sv(p, dt, dD[:, :, i], dD[:, :, 2 + i])
    return out


def simulate_heston2_batch(params: Heston2Params, grid: SimGrid,
                           path_indices: Sequence[int]) -> dict[str, np.ndarray]:
    """Two-asset Heston paths, one row per entry of ``path_indices``: "S1",
    "S2", "V1", "V2" of shape (B, n+1)."""
    return _heston2_euler(params, grid, _stack_draws(grid, path_indices, 4))


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
                              n_assets: int = 1) -> dict[str, np.ndarray]:
    """Cantor-clock paths, one row per entry of ``path_indices``: "S" and
    "W_C" of shape (B, n+1, n_assets) and the shared clock "C" of shape (n+1,).

    The clock C(t) is exact (ternary-digit evaluation), so it can serve
    directly as the bracket column of W_C in Ito augmentation ([W_C]_t = C(t)
    in the refinement limit).  Increments of W_C are N(0, dC), correlated
    across assets by rho; prices follow the Euler step
    S_{k+1} = S_k + sigma(S_k) * dW_C.
    """
    if n_assets not in (1, 2):
        raise ValueError("n_assets must be 1 or 2")
    if len(params.s0) != n_assets:
        raise ValueError(f"params carry {len(params.s0)} assets, requested {n_assets}")
    return _cantor_euler(params, grid, _stack_draws(grid, path_indices, n_assets),
                         n_assets)
