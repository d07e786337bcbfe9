"""Discrete gamma-signatures of sampled paths.

A gamma-signature is the truncated signature whose iterated integrals are
Riemann sums evaluated at ``X_{t_k} + gamma * (X_{t_{k+1}} - X_{t_k})``:
``gamma = 0`` is the left-point (Ito) sum, ``gamma = 1/2`` the mid-point
(Stratonovich) sum, ``gamma = 1`` the right-point (backward Ito) sum.

The module provides one batched level step of the recursion (behind both
the running trajectory of one path and the end points of a batch), an
independent per-step Chen-product oracle, the cumulative pathwise (Follmer)
bracket columns of a path batch and the quadratic-variation matrix built on
them, time and bracket augmentation of a path, signature increments via the
group inverse, and design-matrix helpers for regression on signature
coordinates.

Accumulation note: every cumulative sum in the package -- signature levels,
brackets, simulator drivers and realized statistics -- goes through
:func:`cumsum0`, which accumulates in extended precision and casts back to
float64, so the exact on-grid identities hold to near machine precision even
on long grids.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import (
    Alphabet,
    TensorPoly,
    Word,
    concat,
    enumerate_words,
    group_inverse,
    word_str,
)

__all__ = [
    "SamplePath",
    "BracketMatrix",
    "SigTrajectory",
    "cumsum0",
    "bracket_pairs",
    "bracket_columns",
    "quadratic_variation",
    "augment_path",
    "gamma_signature",
    "gamma_signature_chen",
    "sig_increment",
    "feature_matrix",
    "functional_matrix",
    "endpoint_signature_batch",
    "write_path_csv",
    "read_path_csv",
    "write_sig_csv",
]


def cumsum0(increments: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative sum along ``axis`` with a leading zero, accumulated in
    extended precision and cast back to float64.

    The one accumulation primitive of the package: the last entry along
    ``axis`` is the sequential sum of all increments.
    """
    total = np.cumsum(increments, axis=axis, dtype=np.longdouble).astype(np.float64)
    shape = list(total.shape)
    shape[axis] = 1
    return np.concatenate([np.zeros(shape), total], axis=axis)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A path sampled on a strictly increasing time grid.

    ``values`` has one row per grid point; columns follow the letter layout
    of ``alphabet`` (time, base, brackets).  ``names`` optionally documents
    column meaning for simulator outputs; ``meta`` carries bookkeeping such
    as degenerate-step counts.
    """

    times: np.ndarray
    values: np.ndarray
    alphabet: Alphabet
    names: tuple[str, ...] | None = None
    meta: dict = field(default_factory=dict)

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

    def column(self, letter: int) -> np.ndarray:
        """Column of the given alphabet letter."""
        return self.values[:, self.alphabet.index(letter)]

    def by_name(self, name: str) -> np.ndarray:
        if self.names is None or name not in self.names:
            raise KeyError(f"no column named {name!r}")
        return self.values[:, self.names.index(name)]

    def sub_path(self, k: int, m: int) -> "SamplePath":
        """Restriction to grid points k..m inclusive."""
        if not (0 <= k <= m <= self.n_steps):
            raise ValueError(f"invalid slice [{k}, {m}] for {self.n_steps} steps")
        return SamplePath(self.times[k:m + 1], self.values[k:m + 1],
                          self.alphabet, self.names, dict(self.meta))


@dataclass(frozen=True, eq=False)
class BracketMatrix:
    """Cumulative pathwise quadratic variation along the grid.

    ``qv[k]`` is the symmetric d x d matrix of partial sums up to t_k;
    ``qv[0] = 0``.  ``gamma`` records the scaling used: the stored values are
    ``(1 - 2*gamma) * sum of increment products`` (the unscaled Follmer sums
    correspond to ``gamma = 0``).
    """

    times: np.ndarray
    qv: np.ndarray
    gamma: float

    def at(self, k: int) -> np.ndarray:
        return self.qv[k]

    @property
    def final(self) -> np.ndarray:
        return self.qv[-1]


def bracket_pairs(d: int) -> list[tuple[int, int]]:
    """0-based index pairs (i, j), i <= j, in the bracket column order
    (1,1),(1,2),..,(d,d)."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def bracket_columns(values: np.ndarray) -> np.ndarray:
    """Cumulative Follmer sums sum_k dX^i_k dX^j_k of a batch of paths.

    ``values`` has shape (B, n+1, d); returns (B, n+1, d(d+1)/2) with columns
    in the bracket order (1,1),(1,2),..,(d,d) and a zero first row.  Each
    pair is accumulated on its own, so no d-column extended-precision
    temporary is formed.
    """
    values = np.asarray(values, dtype=np.float64)
    B, n_plus_1, d = values.shape
    dX = np.diff(values, axis=1)
    pairs = bracket_pairs(d)
    out = np.empty((B, n_plus_1, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        out[:, :, p] = cumsum0(dX[:, :, i] * dX[:, :, j], axis=1)
    return out


def quadratic_variation(path: SamplePath, gamma: float) -> BracketMatrix:
    """Pathwise bracket [X^i, X^j] = (1 - 2*gamma) * sum_k dX^i_k dX^j_k,
    cumulatively on the path's own grid.

    ``gamma = 1/2`` gives the zero matrix exactly (the prefactor is exactly
    0.0 in floating point).
    """
    _check_gamma(gamma)
    cols = bracket_columns(path.values[None])[0]
    d = path.dim
    qv = np.empty((len(path.times), d, d))
    for p, (i, j) in enumerate(bracket_pairs(d)):
        qv[:, i, j] = qv[:, j, i] = cols[:, p]
    return BracketMatrix(times=path.times, qv=(1.0 - 2.0 * gamma) * qv,
                         gamma=float(gamma))


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
                      tuple(names), dict(path.meta))


@dataclass(frozen=True, eq=False)
class SigTrajectory:
    """Running gamma-signature over [t_0, t_k] for every grid point.

    Coefficients are stored densely per level: ``levels[m-1]`` has shape
    ``(n+1, L**m)`` with columns indexed by words of length m in
    lexicographic order of the letter layout.
    """

    times: np.ndarray
    alphabet: Alphabet
    gamma: float
    trunc_level: int
    levels: tuple[np.ndarray, ...]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def _word_index(self, word: Word) -> int:
        idx = 0
        for letter in word:
            idx = idx * self.alphabet.total_letters + self.alphabet.index(letter)
        return idx

    def coeff_path(self, word: Word) -> np.ndarray:
        """Trajectory of one signature coordinate, length n+1."""
        word = tuple(word)
        if len(word) == 0:
            return np.ones(len(self.times))
        if len(word) > self.trunc_level:
            raise ValueError(
                f"word {word} exceeds truncation level {self.trunc_level}")
        return self.levels[len(word) - 1][:, self._word_index(word)]

    def sig_at(self, k: int) -> TensorPoly:
        """Sparse signature at grid point k (scalar coefficient 1)."""
        terms: dict[Word, float] = {(): 1.0}
        L = self.alphabet.total_letters
        letters = self.alphabet.letters
        for m, arr in enumerate(self.levels, start=1):
            row = arr[k]
            for flat, coeff in enumerate(row):
                if coeff != 0.0:
                    word = []
                    rem = flat
                    for _ in range(m):
                        word.append(letters[rem % L])
                        rem //= L
                    terms[tuple(reversed(word))] = float(coeff)
        return TensorPoly(self.alphabet, self.trunc_level, terms)

    @property
    def end(self) -> TensorPoly:
        return self.sig_at(self.n_steps)


def _check_gamma(gamma: float) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")


def _gamma_points(prev: np.ndarray, gamma: float) -> np.ndarray:
    """Level-(m-1) integrand read at the gamma-point of each step:
    (B, n+1, P) -> (B, n, P)."""
    return prev[:, :-1] + gamma * (prev[:, 1:] - prev[:, :-1])


def _level_step(prev: np.ndarray | None, dX: np.ndarray, gamma: float) -> np.ndarray:
    """Level-m trajectory (B, n+1, L**m) from the level-(m-1) trajectory
    ``prev`` (B, n+1, L**(m-1)) and the increments ``dX`` (B, n, L).

    ``prev = None`` stands for the constant-unit level 0, whose gamma-points
    are exactly 1, so level 1 is the running sum of the increments.
    """
    if prev is None:
        return cumsum0(dX, axis=1)
    B, n, L = dX.shape
    evals = _gamma_points(prev, gamma)
    P = prev.shape[2]
    contrib = (evals[:, :, :, None] * dX[:, :, None, :]).reshape(B, n, P * L)
    return cumsum0(contrib, axis=1)


def gamma_signature(path: SamplePath, gamma: float, trunc_level: int) -> SigTrajectory:
    """Level-by-level gamma-signature of a sampled path on its own grid.

    Level m coordinates satisfy, for each step k,

        S_I(t_{k+1}) = S_I(t_k)
                       + (S_{I'}(t_k) + gamma * (S_{I'}(t_{k+1}) - S_{I'}(t_k)))
                         * dX^{i_last}_k,

    with the level-(m-1) trajectory S_{I'} fully computed first.  Cost is
    O(n * L**trunc_level) for L letters.  ``trunc_level = 0`` returns the
    constant-unit trajectory.
    """
    _check_gamma(gamma)
    if trunc_level < 0:
        raise ValueError("trunc_level must be >= 0")
    # the batched level step on a batch of one path
    dX = path.increments()[None]
    prev = None
    levels: list[np.ndarray] = []
    for _ in range(trunc_level):
        prev = _level_step(prev, dX, gamma)
        levels.append(prev[0])
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


def sig_increment(traj: SigTrajectory, k: int, m: int) -> TensorPoly:
    """Signature over [t_k, t_m] via Chen: inverse(sig[k]) concat sig[m].

    Equals the gamma-signature of the sub-path restricted to [t_k, t_m]
    (the discrete construction is exactly multiplicative on its own grid).
    """
    if k > m:
        raise ValueError(f"need k <= m, got k={k}, m={m}")
    return concat(group_inverse(traj.sig_at(k)), traj.sig_at(m))


def _common_alphabet(trajs: Sequence[SigTrajectory]) -> Alphabet:
    if not trajs:
        raise ValueError("need at least one trajectory")
    alphabet = trajs[0].alphabet
    for traj in trajs[1:]:
        if traj.alphabet != alphabet:
            raise ValueError("trajectories must share one alphabet")
    return alphabet


def feature_matrix(trajs: Sequence[SigTrajectory], words: Sequence[Word],
                   at_end: bool) -> np.ndarray:
    """Design matrix of signature coordinates <e_I, sig>.

    One row per trajectory end point if ``at_end``; otherwise rows stack
    every grid point of every trajectory in order.
    """
    alphabet = _common_alphabet(trajs)
    words = [tuple(w) for w in words]
    for w in words:
        alphabet.validate_word(w)
    max_len = max((len(w) for w in words), default=0)
    for traj in trajs:
        if max_len > traj.trunc_level:
            raise ValueError(
                f"word length {max_len} exceeds trajectory level {traj.trunc_level}")
    if at_end:
        rows = np.empty((len(trajs), len(words)))
        for i, traj in enumerate(trajs):
            k = traj.n_steps
            for j, w in enumerate(words):
                rows[i, j] = 1.0 if not w else traj.levels[len(w) - 1][k, traj._word_index(w)]
        return rows
    blocks = []
    for traj in trajs:
        block = np.empty((len(traj.times), len(words)))
        for j, w in enumerate(words):
            block[:, j] = traj.coeff_path(w)
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def functional_matrix(trajs: Sequence[SigTrajectory], functionals: Sequence[TensorPoly],
                      at_end: bool) -> np.ndarray:
    """Design matrix of pairings <ell, sig> for general linear functionals.

    Each column is the corresponding linear combination of signature
    coordinates; alphabets of functionals and trajectories must match.
    """
    alphabet = _common_alphabet(trajs)
    for ell in functionals:
        if ell.alphabet != alphabet:
            raise ValueError("functional alphabet mismatch")
    expanded = [list(ell.items()) for ell in functionals]
    max_len = max((len(w) for terms in expanded for w, _ in terms), default=0)
    for traj in trajs:
        if max_len > traj.trunc_level:
            raise ValueError(
                f"functional word length {max_len} exceeds trajectory level "
                f"{traj.trunc_level}")
    if at_end:
        rows = np.empty((len(trajs), len(functionals)))
        for i, traj in enumerate(trajs):
            k = traj.n_steps
            for j, terms in enumerate(expanded):
                total = 0.0
                for w, c in terms:
                    coord = 1.0 if not w else traj.levels[len(w) - 1][k, traj._word_index(w)]
                    total += float(c) * coord
                rows[i, j] = total
        return rows
    blocks = []
    for traj in trajs:
        block = np.zeros((len(traj.times), len(functionals)))
        for j, terms in enumerate(expanded):
            for w, c in terms:
                block[:, j] += float(c) * traj.coeff_path(w)
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def endpoint_signature_batch(values: np.ndarray, gamma: float,
                             trunc_level: int) -> list[np.ndarray]:
    """End-point gamma-signature coefficients for a batch of paths.

    ``values`` has shape (B, n+1, L).  Returns one array per level m with
    shape (B, L**m).  Levels below the top take the same level step as
    :func:`gamma_signature` and are materialized along the grid; a top level
    above 1 is contracted over time directly.
    """
    _check_gamma(gamma)
    if trunc_level < 1:
        raise ValueError("trunc_level must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    B, _, L = values.shape
    dX = np.diff(values, axis=1)
    ends: list[np.ndarray] = []
    prev = None
    for m in range(1, trunc_level + 1):
        if m == trunc_level and m > 1:
            # top level: contracted over time, no trajectory
            end = np.einsum("bkp,bkl->bpl", _gamma_points(prev, gamma), dX)
            ends.append(end.reshape(B, L ** m))
        else:
            prev = _level_step(prev, dX, gamma)
            ends.append(prev[:, -1, :])
    return ends


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_path_csv(path: SamplePath, file, header_comment: str | None = None) -> None:
    """Write a path as CSV with header ``t,x1,...,xd`` ('.' decimal, UTF-8)."""
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "w", encoding="utf-8", newline="")
        close = True
    try:
        if header_comment:
            file.write(f"# {header_comment}\n")
        d = path.dim
        file.write("t," + ",".join(f"x{i}" for i in range(1, d + 1)) + "\n")
        for k in range(len(path.times)):
            row = [_fmt(path.times[k])] + [_fmt(v) for v in path.values[k]]
            file.write(",".join(row) + "\n")
    finally:
        if close:
            file.close()


def read_path_csv(file, alphabet: Alphabet | None = None) -> SamplePath:
    """Read a path written by :func:`write_path_csv`.

    Columns beyond ``t`` become base letters unless an alphabet is given.
    """
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "r", encoding="utf-8")
        close = True
    try:
        rows = []
        header = None
        for line in file:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(part) for part in line.split(",")])
    finally:
        if close:
            file.close()
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
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "w", encoding="utf-8", newline="")
        close = True
    try:
        if header_comment:
            file.write(f"# {header_comment}\n")
        file.write("t,word,coeff\n")
        words = enumerate_words(traj.alphabet, traj.trunc_level)
        columns = [np.ones(len(traj.times)) if not w else traj.coeff_path(w)
                   for w in words]
        for k in range(len(traj.times)):
            t = _fmt(traj.times[k])
            for w, col in zip(words, columns):
                file.write(f"{t},{word_str(w)},{_fmt(col[k])}\n")
    finally:
        if close:
            file.close()
