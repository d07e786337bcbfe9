"""Reproducible path simulators: Heston (1 and 2 assets), Cantor-clock SDEs,
and the Cantor function.

Reproducibility model: every path gets its own counter-based RNG stream,
``numpy.random.Philox`` keyed by ``(master_seed, path_index)``.  A path is a
pure function of (params, grid, path_index, master_seed), independent of how
many paths are drawn together or in what order.

Each simulator takes a batch of path indices and returns the arrays of its
Euler kernel with one row per path; a two-asset price or variance has shape
(B, n+1, 2).  A simulator works in one flat float64 buffer of
:func:`simulation_values` values, time first and paths last, (n+1, A, B)
in C order, and returns transpose views of it: every Euler step reads its
drivers as one contiguous (A, B) block and advances one running state
(A, B) of contiguous vectors over paths, an asset per row.  The buffer is a
caller's ``out`` where given, a new one otherwise: ``out`` only says where
the arrays live.  The simulators return prices and what the drivers are
recovered from: Heston's variances, which :func:`heston_drivers` turns
into W_Q and B_Q, any slice of paths at a time, and the Cantor-clock
increments of W_C.
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
    "heston_drivers",
    "simulation_values",
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

    def vol(self, s: np.ndarray) -> np.ndarray:
        """sigma_i(s) of a running state (A, B), asset i in row i."""
        if self.vol_kind == "tanh":
            return 1.0 + 0.3 * np.tanh(s)
        return np.array(self.nu)[:, None] * s


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
    to the symmetric eigenvalue square root (still A @ A.T = corr).  ``corr``
    is a validated :attr:`Heston2Params.corr_matrix`."""
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(corr)
        return V * np.sqrt(np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# Cantor function
# ---------------------------------------------------------------------------

#: Ternary digits that can move the Cantor function's float64 value: the
#: weight 2**-k of digit k is the smallest subnormal at k = 1074 and rounds
#: to 0.0 beyond it.
_CANTOR_DIGITS = 1074


def cantor_function(x, depth: int = 40):
    """Cantor (devil's staircase) function on [0, 1] via ternary digits.

    Scan base-3 digits of x up to the first digit equal to 1 (inclusive) or
    ``depth`` digits, map 0 -> 0, 2 -> 1, terminal 1 -> 1, and read the
    result base 2.  Monotone non-decreasing with C(0) = 0, C(1) = 1,
    constant on the removed middle-third intervals; digit truncation gives
    absolute error at most 2**-depth (plus float ternary-digit jitter for
    inputs that are not exactly representable).  Digit k weighs 2**-k, which
    is 0.0 in float64 past k = 1074, so at most ``_CANTOR_DIGITS`` digits
    are read: a greater depth gives the same bits.
    """
    scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("cantor_function requires x in [0, 1]")
    r = arr.copy()
    out = np.zeros_like(arr)
    active = np.ones(arr.shape, dtype=bool)
    w = 0.5
    for _ in range(min(depth, _CANTOR_DIGITS)):
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
# Simulator buffers
# ---------------------------------------------------------------------------

def simulation_values(params: HestonParams | Heston2Params | CantorParams, n: int,
                      paths: int) -> int:
    """The float64 values of the flat buffer in which a simulator works on
    ``paths`` paths of n steps, chosen by the type of ``params``: 2(n+1)
    per path for :func:`simulate_heston_batch` (its prices and variances),
    8n + 4 for :func:`simulate_heston2_batch` (the correlated increments,
    then the variances and the prices) and (2n + 1)A for
    :func:`simulate_cantor_sde_batch` with A = len(params.s0) assets (the
    increments of W_C, then the prices)."""
    if isinstance(params, CantorParams):
        return (2 * n + 1) * len(params.s0) * paths
    return (2 * (n + 1) if isinstance(params, HestonParams) else 8 * n + 4) * paths


def _flat(params: HestonParams | Heston2Params | CantorParams, n: int, paths: int,
          out: np.ndarray | None) -> np.ndarray:
    """A simulator's buffer of :func:`simulation_values` values: a new one,
    or the leading values of ``out``, which must be a flat C-contiguous
    float64 array of at least that many, so that its reshaped slices are
    views of it."""
    size = simulation_values(params, n, paths)
    if out is None:
        return np.empty(size)
    if (not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.ndim != 1
            or not out.flags.c_contiguous or out.size < size):
        raise ValueError(f"'out' must be a flat C-contiguous float64 array of at least "
                         f"{size} values")
    return out[:size]


def _tail(out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The trailing values of a flat buffer ``out`` as an array of ``shape``."""
    return out[out.size - int(np.prod(shape)):].reshape(shape)


def _stack_draws(grid: SimGrid, path_indices: Sequence[int], width: int, *,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals (n, width, B), paths last, written into ``out``
    where given, an (n, width, B) float64 array; column b is the first
    ``(n, width)`` draws of ``path_rng(master_seed, path_indices[b])``.  One
    Philox is re-keyed per path instead of a generator being built per path:
    a fresh stream is its key with a zero counter and an empty buffer, which
    is the state set here."""
    draws = np.empty((grid.n, width, len(path_indices))) if out is None else out
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for b, idx in enumerate(path_indices):
        fresh["state"]["key"] = np.array([grid.master_seed, idx], dtype=np.uint64)
        bitgen.state = fresh
        draws[:, :, b] = gen.standard_normal((grid.n, width))
    return draws


# ---------------------------------------------------------------------------
# Heston simulators
# ---------------------------------------------------------------------------

def _heston_sv(params: Sequence[HestonParams], dt: float, d_price: np.ndarray,
               d_var: np.ndarray, S: np.ndarray, V: np.ndarray) -> None:
    """Full-truncation Euler of a batch of Heston assets, ``params[i]`` for
    asset i: writes the price into S and the variance into V, both of shape
    (n+1, A, B), from price and variance driver increments of shape
    (n, A, B).  The running state has shape (A, B), each asset's parameters
    a column.  Step k reads its increments before it writes row k+1, so
    ``S[1:]`` and ``V[1:]`` may be the increments' own memory.  A state
    that overflows float64 goes on as inf or NaN, without a warning."""
    n, A, B = d_price.shape
    s0, v0, mu, kappa, theta, sigma = (
        np.array([[getattr(p, name)] for p in params])
        for name in ("s0", "v0", "mu", "kappa", "theta", "sigma"))
    s, v = np.repeat(s0, B, axis=1), np.repeat(v0, B, axis=1)
    S[0], V[0] = s, v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            sqv = np.sqrt(v)  # v is already floored at 0
            s = s + mu * s * dt + s * sqv * d_price[k]
            v = np.maximum(v + kappa * (theta - v) * dt + sigma * sqv * d_var[k], 0.0)
            S[k + 1], V[k + 1] = s, v


#: Time steps per block of the in-place Heston correlation: its temporary
#: rho * z_0 holds one block, not the whole batch.
_CORRELATION_STEPS = 64


def _heston_euler(params: HestonParams, grid: SimGrid,
                  rows: np.ndarray) -> dict[str, np.ndarray]:
    """Full-truncation Euler for a batch in ``rows``, an (n+1, 2, B) array
    whose rows 1..n hold standard normals z, turned into the price and
    variance increments in place: z_1 <- (c z_1) + (rho z_0),
    c = sqrt(1 - rho**2), then z <- z sqrt(dt), which has the bits of
    sqrt(dt) (rho z_0 + c z_1).  Each step writes its price and variance
    into row k+1 over the increments it has read; returns "S" and "V", the
    transposes of the columns 0 and 1 of ``rows``."""
    z = rows[1:]
    n, rho = z.shape[0], params.rho
    c = np.sqrt(1.0 - rho * rho)
    for lo in range(0, n, _CORRELATION_STEPS):
        steps = slice(lo, lo + _CORRELATION_STEPS)
        z[steps, 1] *= c
        z[steps, 1] += rho * z[steps, 0]
    z *= np.sqrt(grid.dt)
    _heston_sv((params,), grid.dt, z[:, :1], z[:, 1:], rows[:, :1], rows[:, 1:])
    return {"S": rows[:, 0].T, "V": rows[:, 1].T}


def heston_drivers(S: np.ndarray, V: np.ndarray, sigma: float, *,
                   out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The drivers recovered from Heston prices S and variances V of shape
    (B, n+1), in any memory layout: "W_Q" and "B_Q" of shape (B, n+1) and
    "degenerate_steps" of shape (B,).

    dW_Q = dS/(S*sqrt(V)) and dB_Q = dV/(sigma*sqrt(V)), left-point S and V;
    a step with sqrt(V) <= ``SQRT_V_FLOOR`` is skipped (zero increment) and
    counted, and at sigma = 0 every variance step is degenerate and B_Q is
    0.  A path's drivers are a function of its own rows alone, so any slice
    of a batch's paths gets the bits of the whole batch.  Where ``out`` is
    given, a float64 array of shape (B, n+1, 2) in any memory layout, W_Q
    and B_Q are written into ``out[..., 0]`` and ``out[..., 1]`` and
    returned as views of it; otherwise they are transpose views of new
    (n+1, B) buffers."""
    S, V = np.asarray(S).T, np.asarray(V).T
    n, B = S.shape[0] - 1, S.shape[1]
    W_out, B_out = (None, None) if out is None else (out[..., 0].T, out[..., 1].T)
    safe = np.sqrt(V[:-1])
    deg = safe <= SQRT_V_FLOOR
    safe[deg] = 1.0
    d = np.diff(S, axis=0)
    d /= S[:-1] * safe
    d[deg] = 0.0
    W_Q = cumsum0(d, out=W_out)
    if sigma > 0.0:
        safe *= sigma
        d = np.divide(np.diff(V, axis=0), safe, out=safe)
        d[deg] = 0.0
        deg_count = deg.sum(axis=0)
    else:
        d.fill(0.0)
        deg_count = np.full(B, n)
    return {"W_Q": W_Q.T, "B_Q": cumsum0(d, out=B_out).T, "degenerate_steps": deg_count}


def simulate_heston_batch(params: HestonParams, grid: SimGrid,
                          path_indices: Sequence[int], *,
                          out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Heston paths, one row per entry of ``path_indices``: prices "S" and
    variances "V" of shape (B, n+1).  Row b draws its drivers from the
    first ``(n, 2)`` standard normals of ``path_rng(master_seed,
    path_indices[b])``; :func:`heston_drivers` recovers W_Q and B_Q from
    S and V.

    The simulator works in a flat buffer of :func:`simulation_values`
    values, 2(n+1)B, viewed as (n+1, 2, B): the draws go to rows 1..n, are
    correlated and scaled there, and each Euler step writes its price and
    variance into row k+1 over the increments it has read.  S and V are
    the transposes of that view's columns 0 and 1.  The buffer is the
    leading values of ``out`` where given (a flat C-contiguous float64
    array of at least that many values), a new one otherwise; the keys and
    bits do not depend on it.
    """
    n, B = grid.n, len(path_indices)
    rows = _flat(params, n, B, out).reshape(n + 1, 2, B)
    _stack_draws(grid, path_indices, 2, out=rows[1:])
    return _heston_euler(params, grid, rows)


def _heston2_euler(params: Heston2Params, grid: SimGrid, z: np.ndarray,
                   out: np.ndarray) -> dict[str, np.ndarray]:
    """z has shape (n, 4, B); driver order (B1, B2, W1, W2).  ``out`` is
    the simulator's flat buffer, whose first 4nB values z does not overlap:
    the correlated increments (n, 4, B) take those values, and the
    variances and the prices, each (n+1, 2, B), its last 4(n+1)B, over z
    once it is read.  Returns "S" and "V"."""
    n, _, B = z.shape
    dD = out[:4 * n * B].reshape(n, 4, B)
    V, S = _tail(out, (2, n + 1, 2, B))
    L = _corr_factor(params.corr_matrix)
    # dD_j = sum_k L[j, k] z_k, summed in the fixed order (k0 + k2) + (k1 + k3)
    for j in range(4):
        dD[:, j] = (L[j, 0] * z[:, 0] + L[j, 2] * z[:, 2]) \
            + (L[j, 1] * z[:, 1] + L[j, 3] * z[:, 3])
    dD *= np.sqrt(grid.dt)
    # price drivers B^i, variance drivers W^i
    _heston_sv((params.asset1, params.asset2), grid.dt, dD[:, :2], dD[:, 2:], S, V)
    return {"S": S.transpose(2, 0, 1), "V": V.transpose(2, 0, 1)}


def simulate_heston2_batch(params: Heston2Params, grid: SimGrid,
                           path_indices: Sequence[int], *,
                           out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Two-asset Heston paths, one row per entry of ``path_indices``: prices
    "S" and variances "V" of shape (B, n+1, 2), asset i in ``[..., i]``.

    The simulator works in a flat buffer of :func:`simulation_values`
    values, (8n + 4)B: the draws go to its last 4nB values, the correlated
    increments to its first 4nB, and the Euler steps write the variances
    and then the prices, each (n+1, 2, B), into its last 4(n+1)B values,
    over the draws; S is a view of the last 2(n+1)B.  The buffer is the
    leading values of ``out`` where given (a flat C-contiguous float64
    array of at least that many values), a new one otherwise; the keys and
    bits do not depend on it."""
    n, B = grid.n, len(path_indices)
    buffer = _flat(params, n, B, out)
    z = _stack_draws(grid, path_indices, 4, out=_tail(buffer, (n, 4, B)))
    return _heston2_euler(params, grid, z, buffer)


# ---------------------------------------------------------------------------
# Cantor-clock SDE
# ---------------------------------------------------------------------------

def _cantor_euler(params: CantorParams, grid: SimGrid, z: np.ndarray,
                  out: np.ndarray) -> dict[str, np.ndarray]:
    """Euler of the Cantor-clock SDE for a batch from standard normals z of
    shape (n, A, B), A = len(params.s0); z is turned into the increments of
    W_C in place, a second asset's row correlated with the first.  The
    running state has shape (A, B), each asset a row, as in
    :func:`_heston_sv`, and a state that overflows float64 goes on as inf
    or NaN, without a warning.  The prices are written into the last
    (n+1)AB values of the flat buffer ``out``, which z does not overlap.
    Returns "S" and the increments "dW_C", a view of z."""
    n, A, B = z.shape
    dC = np.clip(np.diff(cantor_function(grid.times, params.cantor_depth)), 0.0, None)
    if A == 2:
        rho = params.rho
        z[:, 1] *= np.sqrt(1.0 - rho * rho)
        z[:, 1] += rho * z[:, 0]
    z *= np.sqrt(dC)[:, None, None]
    S = _tail(out, (n + 1, A, B))
    s = np.repeat(np.array(params.s0)[:, None], B, axis=1)
    S[0] = s
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            s = s + params.vol(s) * z[k]
            S[k + 1] = s
    return {"S": S.transpose(2, 0, 1), "dW_C": z.transpose(2, 0, 1)}


def simulate_cantor_sde_batch(params: CantorParams, grid: SimGrid,
                              path_indices: Sequence[int], *,
                              out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Cantor-clock paths, one row per entry of ``path_indices``: prices "S"
    of shape (B, n+1, A), with A = len(params.s0) assets (1 or 2), and the
    increments "dW_C" of W_C, of shape (B, n, A).

    Increments of W_C are N(0, dC) for the clock C = :func:`cantor_function`
    on the grid, correlated across assets by rho; prices follow the Euler
    step S_{k+1} = S_k + sigma(S_k) * dW_C.  W_C is the :func:`cumsum0` of
    dW_C along its time axis.  The clock is exact (ternary-digit
    evaluation), so it can serve directly as the bracket column of W_C in
    Ito augmentation ([W_C]_t = C(t) in the refinement limit).

    The simulator works in a flat buffer of :func:`simulation_values`
    values, (2n + 1)AB: the draws go to its first nAB values, viewed as
    (n, A, B), and become the increments there, and the prices take the
    last (n+1)AB values.  The buffer is the leading values of ``out`` where
    given (a flat C-contiguous float64 array of at least that many values),
    a new one otherwise; the keys and bits do not depend on it.  A grid
    beyond T = 1 is refused before anything is drawn.
    """
    A = len(params.s0)
    if A not in (1, 2):
        raise ValueError(f"the Cantor-clock SDE has 1 or 2 assets, params carry {A}")
    if grid.T > 1.0:
        raise ValueError("Cantor clock is defined on [0, 1]; need T <= 1")
    n, B = grid.n, len(path_indices)
    buffer = _flat(params, n, B, out)
    z = _stack_draws(grid, path_indices, A, out=buffer[:n * A * B].reshape(n, A, B))
    return _cantor_euler(params, grid, z, buffer)
