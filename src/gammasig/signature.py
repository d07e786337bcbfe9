"""Discrete gamma-signatures of sampled paths.

A gamma-signature is the truncated signature whose iterated integrals are
Riemann sums evaluated at ``X_{t_k} + gamma * (X_{t_{k+1}} - X_{t_k})``:
``gamma = 0`` is the left-point (Ito) sum, ``gamma = 1/2`` the mid-point
(Stratonovich) sum, ``gamma = 1`` the right-point (backward Ito) sum.

The module provides one level recursion, batched over paths: level 1 is
``X - X_0``, and level m adds the level-(m-1) integrand at each step's
gamma-point times the step's increment.  The running trajectory of one
path and the batched pairings with functionals carry a level along the
grid, whole or as the running columns ``S^m @ R_m`` of a read matrix; the
end points of a batch carry each level only as its running state.  A batch
is stored time first and paths last, (n+1, L, B) in C order, so that every
per-path operation is one contiguous vector over paths and every step reads
one contiguous (L, B) block; the batched functions take and return the
(B, n+1, L) shape, as transpose views of such buffers.  Besides the recursion: an independent per-step
Chen-product oracle, the cumulative pathwise (Follmer) bracket columns of a
path batch and the quadratic-variation matrix built on them, time and
bracket augmentation of a path, and the pairings of linear functionals with signatures for
regression: the design matrix of one trajectory along its grid, one matrix
product per level of dense per-level coefficient arrays, and a batched
route read from the top down, in which each level carries only the
min(L**m, c_m) columns of its pairing and of what the level above reads.
Letter, bracket and word layouts come from :mod:`gammasig.tensor`.

Accumulation note: level 1 of every gamma-signature is the Riemann sum of
the increments, which telescopes to ``X - X_0``; it is computed as that one
correctly rounded difference, not as a cumulative sum.  Every trajectory
summed along the grid -- signature levels from 2 up, brackets, simulator
drivers and realized statistics -- goes through :func:`cumsum0`, which
accumulates in extended precision and casts back to float64, so the exact
on-grid identities hold to near machine precision even on long grids.
End-point levels below the top take the same add and cast one step at a
time; an end-point top level sums float64 step products in time order.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .tensor import (
    Alphabet,
    TensorPoly,
    Word,
    bracket_pairs,
    enumerate_words,
    word_str,
)

__all__ = [
    "SamplePath",
    "SigTrajectory",
    "cumsum0",
    "bracket_columns",
    "quadratic_variation",
    "augment_path",
    "gamma_signature",
    "gamma_signature_chen",
    "functional_matrix",
    "functional_paths",
    "endpoint_signature_batch",
    "write_path_csv",
    "read_path_csv",
    "write_sig_csv",
]


def cumsum0(increments: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative sum along ``axis`` with a leading zero, accumulated in
    extended precision and cast back to float64.

    The one accumulation primitive of the package: entry k along ``axis``
    is the sequential sum of the first k increments, whatever the memory
    layout, and the sums are cast straight into the one float64 output.
    The batched callers accumulate along time, the leading axis of their
    (n, ..., B) arrays.
    """
    # summed in place in one extended-precision copy: a cumsum that casts
    # as it reads buffers a second one
    total = np.array(increments, dtype=np.longdouble)
    np.cumsum(total, axis=axis, out=total)
    shape = list(total.shape)
    shape[axis] = 1
    return np.concatenate([np.zeros(shape), total], axis=axis,
                          dtype=np.float64, casting="same_kind")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A path sampled on a strictly increasing time grid.

    ``values`` has one row per grid point; columns follow the letter layout
    of ``alphabet`` (time, base, brackets).  ``names`` optionally documents
    column meaning.
    """

    times: np.ndarray
    values: np.ndarray
    alphabet: Alphabet
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or len(times) != len(values):
            raise ValueError("times must be 1-D with one entry per value row")
        if len(times) < 1:
            raise ValueError("path needs at least one grid point")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if values.shape[1] != self.alphabet.total_letters:
            raise ValueError(
                f"value columns ({values.shape[1]}) must match alphabet letters "
                f"({self.alphabet.total_letters})")
        if self.names is not None and len(self.names) != values.shape[1]:
            raise ValueError("names must match column count")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def sub_path(self, k: int, m: int) -> "SamplePath":
        """Restriction to grid points k..m inclusive."""
        if not (0 <= k <= m <= self.n_steps):
            raise ValueError(f"invalid slice [{k}, {m}] for {self.n_steps} steps")
        return SamplePath(self.times[k:m + 1], self.values[k:m + 1],
                          self.alphabet, self.names)


def _batch_last(values: np.ndarray) -> np.ndarray:
    """A (B, n+1, L) batch of path values viewed as (n+1, L, B), paths
    last; a transpose view of a batch-last buffer is C-ordered again."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"a (B, n+1, L) batch of paths required, got shape {values.shape}")
    return values.transpose(1, 2, 0)


def _increments(values: np.ndarray) -> np.ndarray:
    """Increments (n, L, B) of a batch-last view (n+1, L, B) of any memory
    layout, stored in C order, so that every step is one contiguous (L, B)
    block."""
    return np.subtract(values[1:], values[:-1], out=np.empty_like(values[1:], order="C"))


def bracket_columns(values: np.ndarray) -> np.ndarray:
    """Cumulative Follmer sums sum_k dX^i_k dX^j_k of a batch of paths.

    ``values`` has shape (B, n+1, d); returns (B, n+1, d(d+1)/2), a
    transpose view of a batch-last buffer, with columns in the bracket order
    (1,1),(1,2),..,(d,d) and a zero first row.  Each pair is accumulated on
    its own, so no d-column extended-precision temporary is formed.
    """
    values = _batch_last(values)
    n_plus_1, d, B = values.shape
    dX = _increments(values)
    pairs = bracket_pairs(d)
    out = np.empty((n_plus_1, len(pairs), B))
    for p, (i, j) in enumerate(pairs):
        out[:, p] = cumsum0(dX[:, i] * dX[:, j])
    return out.transpose(2, 0, 1)


def quadratic_variation(path: SamplePath, gamma: float) -> np.ndarray:
    """Pathwise bracket [X^i, X^j] = (1 - 2*gamma) * sum_k dX^i_k dX^j_k,
    cumulatively on the path's own grid.

    Returns an array of shape (n+1, d, d): entry k is the symmetric matrix
    of partial sums up to t_k, and entry 0 is zero.  ``gamma = 1/2`` gives
    the zero matrix exactly (the prefactor is exactly 0.0 in floating
    point); the unscaled Follmer sums correspond to ``gamma = 0``.
    """
    _check_gamma(gamma)
    cols = bracket_columns(path.values[None])[0]
    d = path.dim
    qv = np.empty((len(path.times), d, d))
    for p, (i, j) in enumerate(bracket_pairs(d)):
        qv[:, i, j] = qv[:, j, i] = cols[:, p]
    return (1.0 - 2.0 * gamma) * qv


def augment_path(path: SamplePath, gamma: float, include_time: bool,
                 include_brackets: bool, scaled_brackets: bool = False) -> SamplePath:
    """Extend a base path by a time column and/or bracket columns.

    Output columns follow the fixed layout (t, X^1..X^d, [1,1], [1,2], ...,
    [d,d]).  Bracket columns use the unscaled Follmer sums for gamma != 1/2
    and are identically zero at gamma = 1/2; ``scaled_brackets`` switches to
    the (1 - 2*gamma)-scaled variant.
    """
    if path.alphabet.has_time or path.alphabet.has_brackets:
        raise ValueError("augment_path expects a path with base columns only")
    _check_gamma(gamma)
    d = path.alphabet.d
    cols: list[np.ndarray] = []
    names: list[str] = []
    if include_time:
        cols.append(path.times[:, None])
        names.append("t")
    cols.append(path.values)
    names.extend(path.names if path.names is not None
                 else tuple(f"x{i}" for i in range(1, d + 1)))
    if include_brackets:
        pairs = bracket_pairs(d)
        if gamma == 0.5 and not scaled_brackets:
            brackets = np.zeros((len(path.times), len(pairs)))
        else:
            brackets = bracket_columns(path.values[None])[0]
            if scaled_brackets:
                brackets = (1.0 - 2.0 * gamma) * brackets
        cols.append(brackets)
        names.extend(f"[{i + 1},{j + 1}]" for i, j in pairs)
    alphabet = Alphabet(d, has_time=include_time, has_brackets=include_brackets)
    return SamplePath(path.times, np.concatenate(cols, axis=1), alphabet,
                      tuple(names))


@dataclass(frozen=True, eq=False)
class SigTrajectory:
    """Running gamma-signature over [t_0, t_k] for every grid point.

    Coefficients are stored densely per level: ``levels[m-1]`` has shape
    ``(n+1, L**m)``, and word w of length m is column
    ``alphabet.word_index(w)``.
    """

    times: np.ndarray
    alphabet: Alphabet
    gamma: float
    trunc_level: int
    levels: tuple[np.ndarray, ...]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def coeff_path(self, word: Word) -> np.ndarray:
        """Trajectory of one signature coordinate, length n+1."""
        word = tuple(word)
        if len(word) == 0:
            return np.ones(len(self.times))
        if len(word) > self.trunc_level:
            raise ValueError(
                f"word {word} exceeds truncation level {self.trunc_level}")
        return self.levels[len(word) - 1][:, self.alphabet.word_index(word)]

    def sig_at(self, k: int) -> TensorPoly:
        """Sparse signature at grid point k (scalar coefficient 1)."""
        words = enumerate_words(self.alphabet, self.trunc_level)
        return TensorPoly(self.alphabet, self.trunc_level,
                          {w: float(self.coeff_path(w)[k]) for w in words})

    @property
    def end(self) -> TensorPoly:
        return self.sig_at(self.n_steps)


def _check_gamma(gamma: float) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")


def _levels(values: np.ndarray, gamma: float, reads: Sequence[np.ndarray | None]
            ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The gamma-signature recursion of a batch of paths ``values``
    (n+1, L, B), paths last, in any memory layout: yields ``(level,
    points)`` for m = 1 .. len(reads), the carried level-m trajectory and
    its gamma-points, the level read at ``S_k + gamma * dS_k``.  A level's
    gamma-points, and the increments dX (n, L, B), are formed only when the
    level above it is requested; the last level yields ``None`` for them.

    ``reads[m-1]`` is None for a level carried whole, (n+1, L**m, B), or a
    read matrix R_m (L**m, c) for a level carried as ``S^m @ R_m``,
    (n+1, c, B).  Level 1 is always whole: it is the Riemann sum of the
    increments, which telescopes to ``X - X_0``, one correctly rounded
    subtraction instead of a running sum, whose gamma-points are a view of
    it at ``gamma = 0``.  Level m >= 2 is the running sum of the level-(m-1)
    gamma-points times dX: their outer product for a whole level, or
    ``sum_a dX^a * (points read through R_m[(., a), :])`` for a carried
    ``S^m @ R_m``.  A carried level's gamma-points are the same map on its
    running sum, so a carried level below R_m must end in the columns
    ``R_m.reshape(L**(m-1), L * c)``.  Each level is stored along the grid,
    unlike the running states of :func:`endpoint_signature_batch`.
    """
    level = np.subtract(values, values[:1], out=np.empty_like(values, order="C"))
    dX = _increments(values) if len(reads) > 1 else None
    for m, read in enumerate(reads, 1):
        if m > 1:
            # no name holds the contributions: they are freed when cumsum0
            # returns, not kept beside the level's gamma-points
            level = cumsum0(_step_terms(points, dX, read, reads[m - 2] is None))
        # gamma-points only for a level above to read
        points = None
        if m < len(reads):
            if m == 1:
                points = level[:-1]
                if gamma:
                    points = gamma * dX
                    points += level[:-1]
            else:
                points = level[1:] - level[:-1]
                points *= gamma
                points += level[:-1]
        yield level, points


def _product(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Batch-last rows (n, K, B) times a small (K, c) matrix, as a C-ordered
    (n, c, B) array with, per path, the bits of that path's own BLAS product
    (n, K) @ (K, c).  BLAS picks its kernel, and with it the summation
    order, from the operands' shapes and layouts, so the product is taken
    path by path, from a paths-first copy of the rows."""
    by_path = np.ascontiguousarray(rows.transpose(2, 0, 1))
    return np.ascontiguousarray((by_path @ weights).transpose(1, 2, 0))


def _step_terms(points: np.ndarray, dX: np.ndarray, read: np.ndarray | None,
                whole_below: bool) -> np.ndarray:
    """Step contributions of one level from the gamma-points of the level
    below: their outer product with dX for a level carried whole (read
    None), else ``sum_a dX^a * lift_a`` accumulated letter by letter, where
    ``lift_a`` is the points read through the rows (., a) of ``read`` for a
    whole level below, or its slice of the trailing columns of a carried
    one."""
    n, L, B = dX.shape
    if read is None:
        P = points.shape[1]
        return (points[:, :, None] * dX[:, None]).reshape(n, P * L, B)
    c = read.shape[1]
    if whole_below:
        by_letter = read.reshape(-1, L, c)
        lifts = (_product(points, by_letter[:, a]) for a in range(L))
    else:
        tail = points[:, points.shape[1] - L * c:]
        lifts = (tail[:, a * c:(a + 1) * c] for a in range(L))
    terms = next(lifts) * dX[:, :1]
    for a, lift in enumerate(lifts, 1):
        terms += lift * dX[:, a:a + 1]
    return terms


def gamma_signature(path: SamplePath, gamma: float, trunc_level: int) -> SigTrajectory:
    """Level-by-level gamma-signature of a sampled path on its own grid.

    Level m coordinates satisfy, for each step k,

        S_I(t_{k+1}) = S_I(t_k)
                       + (S_{I'}(t_k) + gamma * (S_{I'}(t_{k+1}) - S_{I'}(t_k)))
                         * dX^{i_last}_k,

    with the level-(m-1) trajectory S_{I'} fully computed first.  Level 1
    telescopes to ``X - X_0`` and is computed as that difference.  Cost is
    O(n * L**trunc_level) for L letters.  ``trunc_level = 0`` returns the
    constant-unit trajectory.
    """
    _check_gamma(gamma)
    if trunc_level < 0:
        raise ValueError("trunc_level must be >= 0")
    # the batched recursion on a batch of one path
    levels = [level[:, :, 0] for level, _ in
              _levels(path.values[:, :, None], gamma, (None,) * trunc_level)]
    return SigTrajectory(times=path.times, alphabet=path.alphabet,
                         gamma=float(gamma), trunc_level=trunc_level,
                         levels=tuple(levels))


def gamma_signature_chen(path: SamplePath, gamma: float, trunc_level: int) -> SigTrajectory:
    """Independent oracle: per-step group elements multiplied left to right.

    The step element over [t_k, t_{k+1}] has graded parts

        g^(m) = gamma**(m-1) * (dX_k)^{tensor m},   m = 1..trunc_level,

    and the running signature is the Chen concatenation product of the step
    elements.  Agrees with :func:`gamma_signature` up to accumulated
    floating-point roundoff.
    """
    _check_gamma(gamma)
    if trunc_level < 0:
        raise ValueError("trunc_level must be >= 0")
    n = path.n_steps
    L = path.dim
    dX = path.increments()
    out = [np.zeros((n + 1, L ** m)) for m in range(1, trunc_level + 1)]
    cur = [np.zeros(L ** m) for m in range(1, trunc_level + 1)]
    for k in range(n):
        dx = dX[k]
        # graded parts of the step element
        g: list[np.ndarray] = []
        power = dx
        for m in range(1, trunc_level + 1):
            if m > 1:
                power = np.outer(power, dx).ravel()
            g.append(power if m == 1 else gamma ** (m - 1) * power)
        new = []
        for m in range(1, trunc_level + 1):
            acc = cur[m - 1] + g[m - 1]
            for a in range(1, m):
                acc = acc + np.outer(cur[a - 1], g[m - a - 1]).ravel()
            new.append(acc)
        cur = new
        for m in range(trunc_level):
            out[m][k + 1] = cur[m]
    return SigTrajectory(times=path.times, alphabet=path.alphabet,
                         gamma=float(gamma), trunc_level=trunc_level,
                         levels=tuple(out))


def _dense(functionals: Sequence[TensorPoly], alphabet: Alphabet,
           level: int) -> list[np.ndarray]:
    """Coefficients of the functionals as one ``(L**m, p)`` array per level
    m = 0..level: row ``alphabet.word_index(w)`` of level ``len(w)`` and
    column j hold the coefficient of word w in functional j."""
    L = alphabet.total_letters
    dense = [np.zeros((L ** m, len(functionals))) for m in range(level + 1)]
    for j, ell in enumerate(functionals):
        if ell.alphabet != alphabet:
            raise ValueError("functional alphabet mismatch")
        for w, c in ell.items():
            if len(w) > level:
                raise ValueError(
                    f"functional word length {len(w)} exceeds level {level}")
            dense[len(w)][alphabet.word_index(w), j] = float(c)
    return dense


def functional_matrix(traj: SigTrajectory, functionals: Sequence[TensorPoly]) -> np.ndarray:
    """Design matrix of pairings <ell, sig> for linear functionals: one row
    per grid point of the trajectory, one column per functional.

    Each column is the corresponding linear combination of signature
    coordinates (a basis functional gives one coordinate <e_I, sig>), paired
    one level at a time as ``traj.levels[m-1] @ ell[m]``; alphabets of
    functionals and trajectory must match.
    """
    dense = _dense(functionals, traj.alphabet, traj.trunc_level)
    out = np.tile(dense[0], (len(traj.times), 1))
    for level, coeffs in zip(traj.levels, dense[1:]):
        out += level @ coeffs
    return out


def _read_matrices(dense: list[np.ndarray], L: int) -> list[np.ndarray | None]:
    """Per level m = 1..M of dense functionals ``dense`` (top level M), the
    read matrix of :func:`_levels`, built from the top down:

        R_M = ell_M,   R_m = [ell_m | R_{m+1}.reshape(L**m, L * c_{m+1})],

    where c_m is the column count of R_m: the pairing <ell_m, S^m> and the
    columns the level above reads.  A level whose R_m has fewer than L**m
    columns is carried as ``S^m @ R_m``; a level whose projection is not
    narrower is carried whole (None), and so is every level below it,
    since its whole outer product is read.  Level 1 is always whole."""
    top = len(dense) - 1
    reads: list[np.ndarray | None] = [None] * top
    for m in range(top, 1, -1):
        read = dense[m] if m == top else np.concatenate(
            [dense[m], read.reshape(L ** m, -1)], axis=1)
        if read.shape[1] >= L ** m:
            break
        reads[m - 1] = read
    return reads


def functional_paths(values: np.ndarray, gamma: float,
                     functionals: Sequence[TensorPoly]) -> np.ndarray:
    """Pairings <ell_j, S_{0,t_k}> at every grid point of a batch of paths.

    ``values`` (B, n+1, L), in any memory layout, has columns in the letter
    layout of the functionals' alphabet; returns (B, n+1, p) for p
    functionals of top level M, a transpose view of a batch-last buffer.
    The levels come from the level recursion :func:`_levels`, read from the
    top down (:func:`_read_matrices`): a level whose c_m pairing-and-read
    columns are fewer than L**m is carried as ``S^m @ R_m``, its first p
    columns being its pairing, so the top level of p < L**M functionals is
    never formed; any other level is carried whole and paired with one
    matrix product.
    Each path's rows have the bits of its own call and agree with
    :func:`functional_matrix` on :func:`gamma_signature` to roundoff.
    """
    _check_gamma(gamma)
    if not functionals:
        raise ValueError("need at least one functional")
    alphabet = functionals[0].alphabet
    values = _batch_last(values)
    n_plus_1, L, B = values.shape
    if L != alphabet.total_letters:
        raise ValueError(f"value columns ({L}) must match alphabet letters "
                         f"({alphabet.total_letters})")
    p = len(functionals)
    # constant functionals take a zero level 1
    top = max(1, max(ell.max_level() for ell in functionals))
    dense = _dense(functionals, alphabet, top)
    reads = _read_matrices(dense, L)
    out = np.tile(dense[0].T, (n_plus_1, 1, B))
    for coeffs, read, (level, _) in zip(dense[1:], reads, _levels(values, gamma, reads)):
        out += _product(level, coeffs) if read is None else level[:, :p]
    return out.transpose(2, 0, 1)


def endpoint_signature_batch(values: np.ndarray, gamma: float,
                             trunc_level: int) -> list[np.ndarray]:
    """End-point gamma-signature coefficients for a batch of paths.

    ``values`` has shape (B, n+1, L), in any memory layout.  Returns one
    array per level m with shape (B, L**m), a transpose view of a batch-last
    buffer.  Level 1 is ``X_n - X_0``.  One loop over the time steps carries
    the end value of each level above it as a running state (L**m, B), and no
    level is stored along the grid: a level below the top adds its step
    products in extended precision and casts back, the bits of
    :func:`cumsum0`, and the top level sums them in float64.  The sums run
    in time order, so the bits depend neither on the input's layout nor on
    the batch.
    """
    _check_gamma(gamma)
    if trunc_level < 1:
        raise ValueError("trunc_level must be >= 1")
    values = _batch_last(values)
    n_plus_1, L, B = values.shape
    first = values[-1] - values[0]
    if trunc_level == 1:
        return [first.T]
    # -0.0 is the exact identity of addition, so a sum starts from its first
    # step product, sign of zero included, as a cumulative sum does
    sums = [np.full((L ** m, B), -0.0, dtype=np.longdouble) for m in range(2, trunc_level)]
    levels = [np.zeros((L ** m, B)) for m in range(2, trunc_level)]
    top = np.zeros((L ** (trunc_level - 1), L, B))
    term = np.empty_like(top)
    for k in range(n_plus_1 - 1):
        dx = values[k + 1] - values[k]
        point = values[k] - values[0]
        if gamma:
            point += gamma * dx
        for m, total in enumerate(sums):
            total += (point[:, None] * dx[None]).reshape(-1, B)
            old, levels[m] = levels[m], total.astype(np.float64)
            point = levels[m] - old
            point *= gamma
            point += old
        top += np.multiply(point[:, None], dx[None], out=term)
    return [level.T for level in (first, *levels, top.reshape(-1, B))]


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _text_file(file, mode: str):
    """An open text stream as is, or a named file opened in ``mode`` as
    UTF-8 (untranslated newlines when writing) and closed afterwards."""
    if not isinstance(file, (str, bytes)):
        yield file
        return
    with open(file, mode, encoding="utf-8", newline="" if mode == "w" else None) as fh:
        yield fh


def write_path_csv(path: SamplePath, file, header_comment: str | None = None) -> None:
    """Write a path as CSV with header ``t,x1,...,xd`` ('.' decimal, UTF-8)."""
    with _text_file(file, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        d = path.dim
        fh.write("t," + ",".join(f"x{i}" for i in range(1, d + 1)) + "\n")
        for k in range(len(path.times)):
            row = [_fmt(path.times[k])] + [_fmt(v) for v in path.values[k]]
            fh.write(",".join(row) + "\n")


def read_path_csv(file, alphabet: Alphabet | None = None) -> SamplePath:
    """Read a path written by :func:`write_path_csv`.

    Columns beyond ``t`` become base letters unless an alphabet is given.
    """
    rows = []
    header = None
    with _text_file(file, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(part) for part in line.split(",")])
    if header is None or not rows:
        raise ValueError("empty path CSV")
    data = np.asarray(rows)
    times, values = data[:, 0], data[:, 1:]
    if alphabet is None:
        alphabet = Alphabet(values.shape[1])
    return SamplePath(times, values, alphabet)


def write_sig_csv(traj: SigTrajectory, file, header_comment: str | None = None) -> None:
    """Dump a signature trajectory as CSV rows ``t,word,coeff``.

    Words are dot-joined letters in graded-lex order (empty word first with
    coefficient 1), repeated for every grid point in time order.
    """
    words = enumerate_words(traj.alphabet, traj.trunc_level)
    columns = [traj.coeff_path(w) for w in words]
    with _text_file(file, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("t,word,coeff\n")
        for k in range(len(traj.times)):
            t = _fmt(traj.times[k])
            for w, col in zip(words, columns):
                fh.write(f"{t},{word_str(w)},{_fmt(col[k])}\n")
