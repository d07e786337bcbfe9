"""Penalized linear regression on signature features.

Two objectives, matching the experiments that use them:

* ``lasso_fit`` minimizes the unnormalized sum-of-squares objective

      sum_i (y_i - c - (X beta)_i)^2 + alpha * ||beta||_1

  exactly, by following the piecewise-linear lasso path on the Gram matrix
  from the soft threshold max|X'y| down to ``alpha / 2``.  Note the
  soft-threshold constant is ``alpha / 2`` because the
  quadratic term carries no 1/2 and no 1/N; this differs from the common
  library convention (which divides the quadratic term by 2N).  The offset
  ``c`` is a fixed, unpenalized intercept supplied by the caller (it is not
  fitted).

* ``ridge_fit`` minimizes the mean objective

      (1/N) * sum_i (y_i - (X l)_i)^2 + alpha * ||l||_2^2

  in closed form via the SPD system (X'X/N + alpha I) l = X'y/N.  No
  column is excluded from the penalty.

Both solve their linear systems with one Cholesky factorization written in
numpy (``_cholesky``); the systems have at most a few hundred unknowns.
Features are used as given: columns are neither centred nor rescaled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import Word, word_str

__all__ = ["RegressionFit", "lasso_fit", "ridge_fit", "predict", "mse"]


@dataclass(frozen=True)
class RegressionFit:
    """Fitted linear functional on signature features.

    ``words`` labels the feature columns (index words of the functional
    family used to build the design matrix); ``intercept`` is a fixed offset
    added by :func:`predict` (0 unless the pinned-intercept lasso was used).
    """

    words: tuple[Word, ...]
    coeffs: np.ndarray
    intercept: float
    alpha: float
    objective_kind: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "words", tuple(tuple(w) for w in self.words))
        if len(self.words) != len(coeffs):
            raise ValueError("one word label per coefficient required")

    def to_json_dict(self) -> dict:
        return {
            "words": [word_str(w) for w in self.words],
            "coeffs": [float(c) for c in self.coeffs],
            "intercept": self.intercept,
            "alpha": self.alpha,
            "objective_kind": self.objective_kind,
            "diagnostics": self.diagnostics,
        }


def _default_words(p: int) -> tuple[Word, ...]:
    # anonymous single-letter labels when the caller supplies none
    return tuple((j,) for j in range(1, p + 1))


def _validate_design(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C order: BLAS and numpy's reductions sum in an order set by the layout
    X = np.asarray(X, dtype=np.float64, order="C")
    y = np.asarray(y, dtype=np.float64, order="C").ravel()
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if X.shape[0] != len(y):
        raise ValueError("design rows must match target length")
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design matrix and targets must be finite")
    return X, y


#: A lasso fit has converged when no single coordinate update (the soft-
#: threshold step of coordinate descent) would move its coefficient by more
#: than this times the largest coefficient: the KKT conditions at
#: ``alpha/2``, relative to the fit's own scale, so that scaling y and alpha
#: together scales the fit and keeps its verdict.  A zero fit has converged
#: only where no update would move it at all.
_KKT_TOL = 1e-10

#: A column joins the active set only when its Cholesky pivot against the
#: active columns exceeds this fraction of its squared norm; below that it
#: lies in their span up to rounding, and it may not join until an active
#: column leaves.  Rounding leaves such pivots below about 1e-14; short
#: signature designs have genuine pivots near 1e-11, which 1e-10 would bar.
_PIVOT_RTOL = 1e-13


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              max_iter: int = 1_000,
              words: Sequence[Word] | None = None,
              intercept: float = 0.0) -> RegressionFit:
    """Exact minimizer of the sum-of-squares lasso objective.

    The lasso homotopy (Osborne, Presnell & Turlach, IMA J. Numer. Anal. 20,
    2000; the lasso form of LARS, Efron, Hastie, Johnstone & Tibshirani,
    Ann. Statist. 32, 2004) on the Gram matrix: the solution is piecewise
    linear in the soft threshold, so it is followed from max|X'y|, where it
    is 0, down to ``alpha / 2`` one piece per event, a column joining or
    leaving the active set.  At ``alpha / 2`` one closed-form solve on the
    final active set and signs gives the optimum.  Along the path the
    objective at ``alpha`` never rises.  A column in the span of the active
    columns does not join until an active column leaves.

    All-zero columns keep coefficient 0.  ``max_iter`` caps the active-set
    steps (the linear pieces), and a capped fit returns the point on the path
    where it stopped; ``diagnostics["n_iter"]`` counts them and
    ``diagnostics["converged"]`` reports whether the KKT conditions hold
    within ``_KKT_TOL`` times max|beta|.  ``intercept`` is subtracted from y
    before fitting and stored for :func:`predict`; it is neither fitted nor
    penalized.  A solve on collinear active columns raises a ``ValueError``
    naming them.
    """
    X, y = _validate_design(X, y)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n, p = X.shape
    gram = X.T @ X
    cols = np.flatnonzero(np.diag(gram) > 0.0)
    if len(cols) < p:  # the copy would double the peak where no column is zero
        gram = gram[np.ix_(cols, cols)]
    c = (X.T @ (y - intercept))[cols]
    words = _default_words(p) if words is None else words
    try:
        beta_cols, steps = _homotopy(gram, c, 0.5 * alpha, max_iter)
    except np.linalg.LinAlgError as exc:
        named = ", ".join(f"{j} ({word_str(tuple(words[j])) or 'empty word'})"
                          for j in np.sort(cols[exc.args[0]]))
        raise ValueError(
            f"lasso at alpha={alpha!r}: the active columns {named} are collinear, "
            "so the active-set solve is singular") from None
    beta = np.zeros(p)
    beta[cols] = beta_cols
    converged = (_kkt_violation(gram, c, beta_cols, 0.5 * alpha)
                 <= _KKT_TOL * np.max(np.abs(beta), initial=0.0))
    return RegressionFit(
        words=words, coeffs=beta,
        intercept=float(intercept), alpha=float(alpha), objective_kind="lasso-sum",
        diagnostics={"in_sample_mse": mse(X @ beta + intercept, y),
                     "n_iter": steps, "converged": bool(converged)})


def _kkt_violation(gram: np.ndarray, c: np.ndarray, beta: np.ndarray,
                   threshold: float) -> float:
    """Largest move one coordinate-descent update would make: the soft
    threshold S(x_j.r + ||x_j||^2 beta_j, alpha/2) / ||x_j||^2 - beta_j."""
    if len(c) == 0:
        return 0.0
    sq = np.diag(gram)
    z = c - gram @ beta + sq * beta
    target = np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0) / sq
    return float(np.max(np.abs(target - beta)))


def _homotopy(gram: np.ndarray, c: np.ndarray, threshold: float,
              max_iter: int) -> tuple[np.ndarray, int]:
    """Coefficients minimizing b'Gb - 2c'b + 2*threshold*||b||_1 (G = gram,
    with a positive diagonal), and the number of linear pieces taken.
    Raises ``np.linalg.LinAlgError(members)`` when the Gram of the active
    set (Gram positions ``members``) is singular.

    Follows the lasso path as its threshold mu falls from max|c|: on the
    active set A, X'r = c - Gb equals mu * signs, so b_A solves
    G_AA b_A = c_A - mu * signs and moves by G_AA^-1 signs per unit of mu.
    A piece ends where an active coefficient reaches 0 (it leaves), an
    inactive |X'r| reaches mu (it joins) or mu reaches ``threshold``."""
    p = len(c)
    beta = np.zeros(p)
    active = np.zeros(0, dtype=np.intp)
    signs = np.zeros(0)
    sides = np.array([[1.0], [-1.0]])
    barred = np.zeros(p, dtype=bool)  # in the span of the active columns
    left = None  # join position (side, column) of the column that just left
    mu = float(np.max(np.abs(c), initial=threshold))
    steps = 0
    while True:
        # the last piece's factor is freed before this piece's is formed, in
        # place of its block of the Gram
        chol = None
        try:
            chol = _cholesky(gram[np.ix_(active, active)])
        except ValueError:
            raise np.linalg.LinAlgError(active) from None
        # the point of the path at mu, solved afresh so that no drift builds up
        beta[active] = _cho_solve(chol, c[active] - mu * signs)
        if mu <= threshold or steps == max_iter:
            return beta, steps
        steps += 1
        direction = _cho_solve(chol, signs)
        slope = gram[:, active] @ direction  # of X'r, against the fall of mu
        leave = np.divide(-beta[active], direction, out=np.full(len(active), np.inf),
                          where=direction * signs < 0.0)
        rate = 1.0 - sides * slope
        join = np.divide(np.maximum(mu - sides * (c - gram @ beta), 0.0), rate,
                         out=np.full((2, p), np.inf), where=rate > 0.0)
        join[:, active] = np.inf
        join[:, barred] = np.inf
        if left is not None:
            # rounding puts it back on the boundary it left, for one piece
            join[left] = np.inf
        times = np.concatenate(([mu - threshold], np.maximum(leave, 0.0), join.ravel()))
        event = int(np.argmin(times))
        mu = threshold if event == 0 else max(mu - times[event], threshold)
        left = None
        if 0 < event <= len(active):
            k = event - 1
            left = (int(signs[k] < 0.0), active[k])
            beta[active[k]] = 0.0
            active, signs = np.delete(active, k), np.delete(signs, k)
            barred[:] = False
        elif event > len(active):
            side, j = divmod(event - 1 - len(active), p)
            low = _solve_lower(chol, gram[active, j])
            if gram[j, j] - float(low @ low) <= _PIVOT_RTOL * gram[j, j]:
                barred[j] = True  # until a column leaves
            else:
                active, signs = np.append(active, j), np.append(signs, sides[side, 0])


#: Columns per panel of a :func:`_cholesky` update.
_PANEL = 64


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = A, in p outer-product steps.

    Only the lower triangle of the trailing square is ever read, so each
    step updates its lower trapezoid alone, in column panels of ``_PANEL``
    from the diagonal down; every entry still takes the same subtractions
    in the same order as in a full-square update.  The factor is written
    over A itself, a float64 array, column k at step k, and row k's upper
    part, which no later step reads or updates, is zeroed then; A is
    returned.  Raises ValueError when a pivot is not positive (A is not
    positive definite)."""
    chol = A
    p = len(chol)
    for k in range(p):
        pivot = chol[k, k]
        if not pivot > 0.0:
            raise ValueError("normal equations are singular; use alpha > 0")
        col = chol[k:, k] / np.sqrt(pivot)
        chol[k:, k] = col
        chol[k, k + 1:] = 0.0
        for lo in range(k + 1, p, _PANEL):
            hi = min(lo + _PANEL, p)
            chol[lo:, lo:hi] -= np.multiply.outer(col[lo - k:], col[lo - k:hi - k])
    return chol


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution: z with L z = b."""
    z = np.zeros(len(b))
    for k in range(len(b)):
        z[k] = (b[k] - chol[k, :k] @ z[:k]) / chol[k, k]
    return z


def _solve_upper(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Back substitution: x with L' x = z."""
    x = np.zeros(len(z))
    for k in range(len(z) - 1, -1, -1):
        x[k] = (z[k] - chol[k + 1:, k] @ x[k + 1:]) / chol[k, k]
    return x


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (L L') x = b."""
    return _solve_upper(chol, _solve_lower(chol, b))


def ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              words: Sequence[Word] | None = None) -> RegressionFit:
    """Closed-form minimizer of the mean-squared ridge objective.

    Solves (X'X/N + alpha I) l = X'y/N by Cholesky; every fit verifies the
    normal-equation residual ||A l - b||_inf <= 1e-10 * scale.  ``alpha = 0``
    is allowed only when X'X is nonsingular.
    """
    X, y = _validate_design(X, y)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n, p = X.shape
    # scaled and shifted in place, so that the Gram and its factor, written
    # over a copy of it, are the only p x p arrays held at once
    A = X.T @ X
    A /= n
    A.flat[::p + 1] += alpha
    b = (X.T @ y) / n
    coeffs = _cho_solve(_cholesky(A.copy()), b)
    residual = float(np.max(np.abs(A @ coeffs - b)))
    scale = float(np.max(np.abs(A)) * max(np.max(np.abs(coeffs)), 1.0)
                  + np.max(np.abs(b)) + 1e-300)
    if residual > 1e-10 * scale:
        raise ArithmeticError(
            f"ridge normal-equation residual {residual:.3e} exceeds "
            f"1e-10 * scale ({scale:.3e})")
    return RegressionFit(
        words=_default_words(p) if words is None else words, coeffs=coeffs,
        intercept=0.0, alpha=float(alpha), objective_kind="ridge-mean",
        diagnostics={"in_sample_mse": mse(X @ coeffs, y),
                     "residual_inf": residual})


def predict(fit: RegressionFit, X: np.ndarray) -> np.ndarray:
    """Pairing of the fitted functional with the rows of a design (n, p), in
    any memory layout (the design is taken in C order)."""
    X = np.asarray(X, dtype=np.float64, order="C")
    if X.ndim != 2 or X.shape[1] != len(fit.coeffs):
        raise ValueError(
            f"design matrix with {len(fit.coeffs)} columns required, "
            f"got shape {X.shape}")
    return X @ fit.coeffs + fit.intercept


def mse(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """Mean of squared differences over the last axis of two arrays of equal
    shape: a float for a 1-D pair, the row means (same bits) for a (B, m)
    pair, in any memory layout: the differences are formed in one new
    C-ordered array and squared in place, so every row is reduced as a
    contiguous one."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim < 1 or pred.shape[-1] < 1:
        raise ValueError(f"equal non-empty shapes required, got {pred.shape}, {target.shape}")
    diff = np.subtract(pred, target, order="C")
    diff *= diff
    means = np.add.reduce(diff, axis=-1) / diff.shape[-1]
    return float(means) if means.ndim == 0 else means
