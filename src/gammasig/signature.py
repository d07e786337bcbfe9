"""Discrete gamma-signatures of sampled paths.

A gamma-signature is the truncated signature whose iterated integrals are
Riemann sums evaluated at ``X_{t_k} + gamma * (X_{t_{k+1}} - X_{t_k})``:
``gamma = 0`` is the left-point (Ito) sum, ``gamma = 1/2`` the mid-point
(Stratonovich) sum, ``gamma = 1`` the right-point (backward Ito) sum.

The module provides one level recursion, batched over paths and walked
along the grid in windows of steps: level 1 is ``X - X_0``, and level m
adds the level-(m-1) integrand at each step's gamma-point times the step's
increment.  The running trajectory of one path collects the windows, the
batched pairings with functionals pair each window into its rows, carrying
a level whole or as the running columns ``S^m @ R_m`` of a read matrix,
and the end points of a batch keep the last rows of the levels below the
top.  A batch is stored time first and paths last, (n+1, L, B) in C order,
so that every per-path operation is one contiguous vector over paths and
every step reads one contiguous (L, B) block; the batched functions take
and return the (B, n+1, L) shape, as transpose views of such buffers.
Besides the recursion: an independent per-step Chen-product oracle, the
cumulative pathwise (Follmer) bracket columns of a path batch and the
quadratic-variation matrix built on them, time and bracket augmentation of
a path, and the pairings of linear functionals with signatures for
regression: the design matrix of one trajectory along its grid, one matrix
product per level of dense per-level coefficient arrays, and a batched
route read from the top down, in which a level below the top carries only
the columns of its pairing and of what the level above reads, and only the
letters read above it: a letter whose read rows are all zero adds no step
term and no block of columns.  Its pairings add each row's weighted terms
elementwise in row order.
Letter, bracket and word layouts come from :mod:`gammasig.tensor`.

Accumulation note: level 1 of every gamma-signature is the Riemann sum of
the increments, which telescopes to ``X - X_0``; it is computed as that one
correctly rounded difference, not as a cumulative sum.  Every trajectory
summed along the grid is accumulated in extended precision and cast back
to float64, so the exact on-grid identities hold to near machine precision
even on long grids: brackets, simulator drivers and realized statistics
through :func:`cumsum0`, and signature levels from 2 up window by window,
each window a cumulative sum that goes on from the extended-precision sum
carried out of the window before, which gives :func:`cumsum0`'s bits
whatever the window size.  An end-point top level sums float64 step
products in time order.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


#: Bytes of the widest array of one window of :func:`_levels` (float64)
#: and :func:`cumsum0` (its extended-precision sums): a window takes as many
#: grid steps as fit, and at least one.
_WINDOW_BYTES = 1 << 17


def _carry_on(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The running sums of a window's ``terms`` (k, ...) in extended
    precision, going on from the sum carried in the last row of ``total``,
    the (K, ...) ``np.longdouble`` sums of the window before, K >= k; a
    first window carries -0.0, the exact identity of addition, so that a
    zero first term keeps its sign.  Written into and returned as
    ``total[:k]``; only a last window has fewer than K terms, so the carry
    of the next is always in row K - 1.  Each entry is the sequential sum
    of every term up to it, as in one cumulative sum over the whole grid,
    whatever the window."""
    k = len(terms)
    np.add(total[-1:], terms[:1], out=total[:1])
    if k > 1:
        # np.cumsum loops over time innermost: one-step windows skip it
        total[1:k] = terms[1:]
        np.cumsum(total[:k], axis=0, out=total[:k])
    return total[:k]


def cumsum0(increments: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sum along the leading axis, time in the (n, ..., B) arrays
    of the batched callers, with a leading zero, accumulated in extended
    precision and cast back to float64.

    The accumulation of the package's trajectories other than signature
    levels, and the same windowed sum as theirs (:func:`_carry_on`): entry
    k is the sequential sum of the first k increments, whatever the memory
    layout and the window, and each window of sums is cast straight into
    the one float64 output.  A window holds as many time steps as fit in
    ``_WINDOW_BYTES`` of extended-precision sums, and at least one, so the
    call takes its output and one window.  That output is ``out`` where
    given, a float64 array of shape (n+1, ...) in any memory layout, which
    is returned; ``out[1:]`` may be the increments' own memory, as each
    window is read before its sums are written.  Otherwise it is a new
    array with the axis order of ``increments`` in memory (C order for a
    C-ordered input), as ``np.empty_like`` makes it.
    """
    increments = np.asarray(increments)
    n, shape = len(increments), increments.shape[1:]
    if out is None:
        out = np.empty_like(increments, dtype=np.float64, shape=(n + 1,) + shape)
    out[0] = 0.0
    if n:
        row = np.dtype(np.longdouble).itemsize * math.prod(shape)
        K = max(1, min(n, _WINDOW_BYTES // max(row, 1)))
        total = np.full((K,) + shape, -0.0, dtype=np.longdouble)
        for lo in range(0, n, K):
            sums = _carry_on(total, increments[lo:lo + K])
            np.copyto(out[lo + 1:lo + 1 + len(sums)], sums, casting="same_kind")
    return out


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


def bracket_columns(values: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative Follmer sums sum_k dX^i_k dX^j_k of a batch of paths.

    ``values`` has shape (B, n+1, d); returns (B, n+1, d(d+1)/2), with
    columns in the bracket order (1,1),(1,2),..,(d,d) and a zero first row:
    ``out`` where given, a float64 array of that shape in any memory layout
    (a transpose view of batch-last memory writes each column's rows
    contiguously), or else a transpose view of a new batch-last buffer.
    The increments dX^i are formed in the rows of column (i,i), each cross
    product in its own column before the squares overwrite them, and each
    column is accumulated on its own by :func:`cumsum0`, so neither the
    increments nor a d-column extended-precision sum take memory of their
    own.
    """
    values = _batch_last(values)
    n_plus_1, d, B = values.shape
    pairs = bracket_pairs(d)
    block = (np.empty((n_plus_1, len(pairs), B)) if out is None
             else out.transpose(1, 2, 0))
    steps = block[1:]
    diagonal = [pairs.index((i, i)) for i in range(d)]
    for i, p in enumerate(diagonal):
        np.subtract(values[1:, i], values[:-1, i], out=steps[:, p])
    # the cross brackets first: a square overwrites the increments it reads
    for p in [p for p, (i, j) in enumerate(pairs) if i != j] + diagonal:
        i, j = pairs[p]
        np.multiply(steps[:, diagonal[i]], steps[:, diagonal[j]], out=steps[:, p])
        cumsum0(steps[:, p], out=block[:, p])
    return block.transpose(2, 0, 1)


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
            ) -> Iterator[tuple[int, np.ndarray, list[np.ndarray]]]:
    """The gamma-signature recursion of a batch of paths ``values``
    (n+1, L, B), paths last, in any memory layout, walked along the grid in
    windows of K steps: yields ``(start, dX, levels)`` per window, its
    increments dX (k, L, B) and, for m = 1 .. len(reads), ``levels[m-1]``
    (k+1, c_m, B), level m at grid points start .. start + k.  K is the
    number of steps whose widest level fits in ``_WINDOW_BYTES`` (at least
    one, at most n); a grid of one point (n = 0) has no window.

    ``reads[m-1]`` is None for a level carried whole (c_m = L**m), or a read
    matrix R_m (L**m, c_m) for a level carried as ``S^m @ R_m``.  Level 1 is
    always whole: it is the Riemann sum of the increments, which telescopes
    to ``X - X_0``, one correctly rounded subtraction instead of a running
    sum.  Level m >= 2 is the running sum of its step terms, the level-(m-1)
    gamma-points (:func:`_gamma_points`) times dX: their outer product for a
    whole level, or ``sum_a dX^a * (points read through R_m[(., a), :])``
    over the letters a that R_m reads (:func:`_read_letters`, found once per
    call) for a carried ``S^m @ R_m`` (:func:`_step_terms`).  A carried
    level's gamma-points are the same map on its running sum, so a carried
    level below R_m must end in the blocks
    ``R_m.reshape(L**(m-1), L, c)[:, a]`` of those letters, in order.

    From one window to the next, each level m >= 2 carries its
    extended-precision running sum and its last float64 row: a window's sums
    are the cumulative sum of its step terms that goes on from the carried
    sum (:func:`_carry_on`, the sum of :func:`cumsum0`), cast back to
    float64 behind the carried row, which gives :func:`cumsum0`'s bits on
    the whole grid.  Every step is elementwise, so the bits depend
    neither on the window nor on the batch.  The yielded arrays are
    overwritten by the next window.
    """
    n_plus_1, L, B = values.shape
    widths = [L ** m if read is None else read.shape[1] for m, read in enumerate(reads, 1)]
    letters = [None if read is None else _read_letters(read, L) for read in reads]
    K = max(1, min(n_plus_1 - 1, _WINDOW_BYTES // (8 * B * max(widths, default=L))))
    steps, firsts = np.empty((K, L, B)), np.empty((K + 1, L, B))
    sums = [np.full((K, c, B), -0.0, dtype=np.longdouble) for c in widths[1:]]
    lasts = [np.zeros((K + 1, c, B)) for c in widths[1:]]
    for start in range(0, n_plus_1 - 1, K):
        window = values[start:start + K + 1]
        dX = np.subtract(window[1:], window[:-1], out=steps[:len(window) - 1])
        levels = [np.subtract(window, values[0], out=firsts[:len(window)])]
        for m, (total, last) in enumerate(zip(sums, lasts), 2):
            terms = _step_terms(_gamma_points(levels[-1], gamma, dX if m == 2 else None),
                                dX, reads[m - 1], letters[m - 1], reads[m - 2] is None)
            running = _carry_on(total, terms)
            if K > 1:
                last[0] = last[K]
            # one-step windows leave the carried row where it is: their two
            # rows swap places every other window
            levels.append(last[::-1] if K == 1 and start % 2 else last[:len(window)])
            levels[-1][1:] = running
        yield start, dX, levels


def _gamma_points(level: np.ndarray, gamma: float, dX: np.ndarray | None) -> np.ndarray:
    """A window's level (k+1, c, B) read at its k gamma-points
    ``S_j + gamma * dS_j``.  Level 1 passes the path's increments dX for dS,
    and its gamma = 0 points are a view of it; a level above forms
    ``dS_j = S_{j+1} - S_j`` from its own rows."""
    if dX is not None and not gamma:
        return level[:-1]
    points = gamma * (level[1:] - level[:-1] if dX is None else dX)
    points += level[:-1]
    return points


def _contract(rows: np.ndarray, weights: Iterable[np.ndarray]) -> np.ndarray:
    """Batch-last rows (k, P, B) contracted with P weights: the sum of
    ``rows[:, i, None] * weights[i]``, added elementwise in row order, so
    that the bits depend neither on the batch nor on the memory layout,
    unlike a BLAS product, whose summation order follows its operands'
    shapes.  The rows of a small (P, c) matrix, given as (P, c, 1), make a
    (k, c, B) product."""
    pairs = zip(rows.transpose(1, 0, 2), weights)
    row, weight = next(pairs)
    out = row[:, None] * weight
    for row, weight in pairs:
        out += row[:, None] * weight
    return out


def _step_terms(points: np.ndarray, dX: np.ndarray, read: np.ndarray | None,
                letters: np.ndarray | None, whole_below: bool) -> np.ndarray:
    """Step contributions of one level from the gamma-points of the level
    below: their outer product with dX for a level carried whole (read
    None), else ``sum_a dX^a * lift_a`` accumulated over the ``letters`` a
    that ``read`` reads (:func:`_read_letters`), in ascending order, where
    ``lift_a`` is the points read through the rows (., a) of ``read`` for a
    whole level below, or, for a carried one, the block of a among its
    trailing columns, which hold one block per read letter in order."""
    k, L, B = dX.shape
    if read is None:
        return (points[:, :, None] * dX[:, None]).reshape(k, points.shape[1] * L, B)
    c = read.shape[1]
    lifts = ((_contract(points, read[a::L, :, None]) for a in letters) if whole_below
             else (points[:, -len(letters) * c:][:, i * c:(i + 1) * c]
                   for i in range(len(letters))))
    return _contract(dX[:, letters], lifts)


def gamma_signature(path: SamplePath, gamma: float, trunc_level: int) -> SigTrajectory:
    """Level-by-level gamma-signature of a sampled path on its own grid.

    Level m coordinates satisfy, for each step k,

        S_I(t_{k+1}) = S_I(t_k)
                       + (S_{I'}(t_k) + gamma * (S_{I'}(t_{k+1}) - S_{I'}(t_k)))
                         * dX^{i_last}_k,

    through the windowed level recursion :func:`_levels` on a batch of one
    path.  Level 1 telescopes to ``X - X_0`` and is computed as that
    difference.  Cost is O(n * L**trunc_level) for L letters.
    ``trunc_level = 0`` returns the constant-unit trajectory.
    """
    _check_gamma(gamma)
    if trunc_level < 0:
        raise ValueError("trunc_level must be >= 0")
    # the batched recursion on a batch of one path
    levels = [np.zeros((len(path.times), path.dim ** m)) for m in range(1, trunc_level + 1)]
    for start, _, window in _levels(path.values[:, :, None], gamma, (None,) * trunc_level):
        for out, level in zip(levels, window):
            out[start + 1:start + len(level)] = level[1:, :, 0]
    return SigTrajectory(times=path.times, alphabet=path.alphabet, trunc_level=trunc_level,
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
        powers = [dx]
        for _ in range(1, trunc_level):
            powers.append(np.outer(powers[-1], dx).ravel())
        g = [gamma ** m * power for m, power in enumerate(powers)]
        new = []
        for m in range(1, trunc_level + 1):
            acc = cur[m - 1] + g[m - 1]
            for a in range(1, m):
                acc = acc + np.outer(cur[a - 1], g[m - a - 1]).ravel()
            new.append(acc)
        cur = new
        for m in range(trunc_level):
            out[m][k + 1] = cur[m]
    return SigTrajectory(times=path.times, alphabet=path.alphabet, trunc_level=trunc_level,
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


def _read_letters(read: np.ndarray, L: int) -> np.ndarray:
    """The letters a, ascending, whose rows (., a) of a read matrix
    (L**m, c) are not all zero: the letters whose step terms a level
    carried as ``S^m @ R_m`` adds, and whose blocks the level below
    carries."""
    return np.flatnonzero(read.reshape(-1, L, read.shape[1]).any(axis=(0, 2)))


def _read_matrices(dense: list[np.ndarray], L: int) -> list[np.ndarray | None]:
    """Per level m = 1..M of p dense functionals ``dense`` (top level M),
    the read matrix of :func:`_levels`, built from the top down:

        R_M = ell_M,   R_m = [ell_m | R_{m+1}.reshape(L**m, L, c_{m+1})[:, A_{m+1}]],

    where c_m is the column count of R_m and A_m its read letters
    (:func:`_read_letters`): the pairing <ell_m, S^m> and, for each letter
    the level above reads, the columns it reads through that letter.  A
    letter whose rows of R_{m+1} are all zero adds only zeros to level
    m + 1, so neither its step term nor its block is formed.  Levels are
    carried as ``S^m @ R_m`` from the top down while p * (1 + L + .. +
    L**(M-m)), the columns with every letter's block, is fewer than L**m;
    that level and every level below it are carried whole (None), since
    its whole outer product is read, so which letters are read never moves
    a level from one route to the other.  Level 1 is always whole."""
    top = len(dense) - 1
    reads: list[np.ndarray | None] = [None] * top
    width = 0
    for m in range(top, 1, -1):
        width = dense[m].shape[1] + L * width
        if width >= L ** m:
            break
        read = dense[m] if m == top else np.concatenate(
            [dense[m], read.reshape(L ** m, L, -1)[:, _read_letters(read, L)]
             .reshape(L ** m, -1)], axis=1)
        reads[m - 1] = read
    return reads


def functional_paths(values: np.ndarray, gamma: float,
                     functionals: Sequence[TensorPoly]) -> np.ndarray:
    """Pairings <ell_j, S_{0,t_k}> at every grid point of a batch of paths.

    ``values`` (B, n+1, L), in any memory layout, has columns in the letter
    layout of the functionals' alphabet; returns (B, n+1, p) for p
    functionals of top level M, a transpose view of a batch-last buffer.
    The levels come from the level recursion :func:`_levels`, read from the
    top down (:func:`_read_matrices`), and each window is paired into its
    rows: a level carried as ``S^m @ R_m`` holds its pairing in its first p
    columns, so the top level of p < L**M functionals is never formed, and
    carries only the letters read above it, so a fit whose top words all
    end in one letter adds one letter's step term at its top; any other
    level is carried whole and paired by :func:`_contract`, its rows'
    weighted terms added elementwise in row order.  No step calls BLAS, so
    a path's rows depend neither on the batch, the chunk, the memory layout
    nor the window; they agree with :func:`functional_matrix` on
    :func:`gamma_signature` to roundoff.  A skipped letter's term is dX^a
    times a sum of zero-weighted products, +-0 for finite values, so
    skipping it can flip only the sign of an exact zero inside a level; a
    pairing starts from +0.0 or a nonzero constant (``TensorPoly`` drops
    -0.0), so for finite values its bits are those of adding every
    letter's term.  An increment that overflows in a letter that no word
    reads no longer turns the level into NaN through inf * 0.
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
    for start, _, window in _levels(values, gamma, reads):
        rows = out[start + 1:start + len(window[0])]
        for coeffs, read, level in zip(dense[1:], reads, window):
            rows += (_contract(level[1:], coeffs[:, :, None]) if read is None
                     else level[1:, :p])
    return out.transpose(2, 0, 1)


def endpoint_signature_batch(values: np.ndarray, gamma: float,
                             trunc_level: int) -> list[np.ndarray]:
    """End-point gamma-signature coefficients for a batch of paths.

    ``values`` has shape (B, n+1, L), in any memory layout.  Returns one
    array per level m with shape (B, L**m), a transpose view of a batch-last
    buffer.  Level 1 is ``X_n - X_0``.  The levels below the top come from
    the windowed level recursion :func:`_levels`, of which only the last
    rows are kept, so no level is stored along the grid; the top level adds
    its float64 step products, the gamma-points of the level below times
    the increments, one step at a time.  The sums run in time order, so the
    bits depend neither on the input's layout, the batch nor the window.
    """
    _check_gamma(gamma)
    if trunc_level < 1:
        raise ValueError("trunc_level must be >= 1")
    values = _batch_last(values)
    n_plus_1, L, B = values.shape
    if trunc_level == 1:
        return [(values[-1] - values[0]).T]
    top = np.zeros((L ** (trunc_level - 1), L, B))
    term = np.empty_like(top)
    # the levels of a single grid point, if there is no step
    window = [np.zeros((1, L ** m, B)) for m in range(1, trunc_level)]
    for _, dX, window in _levels(values, gamma, (None,) * (trunc_level - 1)):
        points = _gamma_points(window[-1], gamma, dX if trunc_level == 2 else None)
        for point, dx in zip(points, dX):
            top += np.multiply(point[:, None], dx[None], out=term)
    return [level[-1].copy().T for level in window] + [top.reshape(-1, B).T]


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


def read_path_csv(file) -> SamplePath:
    """Read a path written by :func:`write_path_csv`; the columns beyond
    ``t`` become base letters."""
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
    return SamplePath(data[:, 0], data[:, 1:], Alphabet(data.shape[1] - 1))


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
