"""Penalized linear regression on signature features.

Two objectives, matching the experiments that use them:

* ``lasso_fit`` minimizes the unnormalized sum-of-squares objective

      sum_i (y_i - c - (X beta)_i)^2 + alpha * ||beta||_1

  exactly, by feature-sign search on the Gram matrix of the active
  columns.  Note the soft-threshold constant is ``alpha / 2`` because the
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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
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
#: than this: the KKT conditions at ``alpha/2``, in coefficient units.
_KKT_TOL = 1e-10

#: A column joins the active set by a plain solve only when its Cholesky
#: pivot exceeds this fraction of its squared norm; below that it lies in the
#: span of the active columns and joins by an exchange step instead.
_PIVOT_RTOL = 1e-10


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              max_iter: int = 1_000,
              words: Sequence[Word] | None = None,
              intercept: float = 0.0) -> RegressionFit:
    """Exact minimizer of the sum-of-squares lasso objective.

    Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006; the active-set
    method of Osborne, Presnell & Turlach, 2000) on the Gram matrix: guess
    the signs of an active set, solve the equality-constrained quadratic in
    closed form, line-search to the lowest objective over the sign changes on
    the way, and activate the zero coefficient whose own move would lower
    the objective most, until no subgradient condition is violated.  No step
    raises the objective.  A column in the span of the active columns joins by moving
    along the null direction of the enlarged Gram matrix, which leaves the
    fit unchanged, to the best point where an active coefficient reaches 0.

    All-zero columns keep coefficient 0.  ``max_iter`` caps the active-set
    steps; ``diagnostics["n_iter"]`` counts them and
    ``diagnostics["converged"]`` reports whether the KKT conditions hold
    within ``_KKT_TOL``.  ``intercept`` is subtracted from y before fitting
    and stored for :func:`predict`; it is neither fitted nor penalized.
    """
    X, y = _validate_design(X, y)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n, p = X.shape
    gram = X.T @ X
    cols = np.flatnonzero(np.diag(gram) > 0.0)
    gram = gram[np.ix_(cols, cols)]
    c = (X.T @ (y - intercept))[cols]
    beta_cols, steps = _feature_sign(gram, c, 0.5 * alpha, max_iter)
    beta = np.zeros(p)
    beta[cols] = beta_cols
    converged = _kkt_violation(gram, c, beta_cols, 0.5 * alpha) <= _KKT_TOL
    return RegressionFit(
        words=_default_words(p) if words is None else words, coeffs=beta,
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


def _feature_sign(gram: np.ndarray, c: np.ndarray, threshold: float,
                  max_iter: int) -> tuple[np.ndarray, int]:
    """Coefficients minimizing b'Gb - 2c'b + 2*threshold*||b||_1 (G = gram,
    with a positive diagonal), and the number of active-set steps taken."""
    beta = np.zeros(len(c))
    active = np.zeros(0, dtype=np.intp)
    sq = np.diag(gram)
    activate = True
    steps = 0
    while steps < max_iter:
        rho = c - gram @ beta  # X'r
        members, signs = active, np.sign(beta[active])
        exchange = False
        if activate:
            # the zero coefficient whose single-coordinate move would lower
            # the objective most, if any violates its condition
            excess = np.maximum(np.abs(rho) - threshold, 0.0)
            excess[active] = 0.0
            if not np.any(excess > _KKT_TOL * sq):
                break
            j = int(np.argmax(excess / np.sqrt(sq)))
            members = np.append(active, j)
            signs = np.append(signs, 1.0 if rho[j] > 0.0 else -1.0)
            chol = _cholesky(gram[np.ix_(active, active)])
            low = _solve_lower(chol, gram[active, j])
            exchange = sq[j] - float(low @ low) <= _PIVOT_RTOL * sq[j]
        steps += 1
        sub = gram[np.ix_(members, members)]
        if exchange:
            # x_j = X_A w: trading t X_A w for t x_j keeps the fit, so along
            # this direction only the penalty moves
            direction = signs[-1] * np.append(-_solve_upper(chol, low), 1.0)
        else:
            direction = (_cho_solve(_cholesky(sub), c[members] - threshold * signs)
                         - beta[members])
        move, reached_end = _line_search(sub, rho[members], beta[members], direction,
                                         threshold, full_step=not exchange)
        if move is None:
            if activate:
                break  # cannot lower the objective: leave the KKT check to report it
            activate = True  # the active set is already optimal for its signs
            continue
        beta[members] += move
        active = members[beta[members] != 0.0]
        # a full step that keeps the guessed signs lands on their optimum;
        # otherwise the new signs are solved again
        activate = reached_end and np.array_equal(np.sign(beta[members]), signs)
    return beta, steps


def _line_search(gram: np.ndarray, rho: np.ndarray, x: np.ndarray,
                 direction: np.ndarray, threshold: float,
                 full_step: bool) -> tuple[np.ndarray | None, bool]:
    """Best move along ``x + t * direction`` among the points where a
    coefficient changes sign (t in (0, 1), or t > 0 when not ``full_step``)
    and, for a full step, t = 1.  Returns the move and whether it is the full
    step, or ``(None, False)`` when no candidate lowers the objective.

    Objective changes are computed as differences, D'GD - 2D'rho +
    2*threshold*(|x + D| - |x|), so that a decrease far below the objective's
    own rounding still registers."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -x / direction
    # a coefficient the direction leaves alone (t = +-inf) never crosses
    crossing = (x != 0.0) & (t > 0.0) & (t < (1.0 if full_step else np.inf))
    idx = np.flatnonzero(crossing)
    ts = t[idx]
    if full_step:
        ts = np.append(ts, 1.0)
    if len(ts) == 0:
        return None, False
    points = x + ts[:, None] * direction
    points[np.arange(len(idx)), idx] = 0.0  # a crossing coefficient is exactly 0
    moves = points - x
    change = (np.einsum("ki,ij,kj->k", moves, gram, moves) - 2.0 * (moves @ rho)
              + 2.0 * threshold * np.sum(np.abs(points) - np.abs(x), axis=1))
    best = int(np.argmin(change))
    if not change[best] < 0.0:
        return None, False
    return moves[best], full_step and best == len(idx)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = A, in p outer-product steps.

    Raises ValueError when a pivot is not positive (A is not positive
    definite)."""
    schur = np.array(A, dtype=np.float64)
    p = len(schur)
    chol = np.zeros((p, p))
    for k in range(p):
        pivot = schur[k, k]
        if not pivot > 0.0:
            raise ValueError("normal equations are singular; use alpha > 0")
        col = schur[k:, k] / np.sqrt(pivot)
        chol[k:, k] = col
        schur[k + 1:, k + 1:] -= np.multiply.outer(col[1:], col[1:])
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
    A = (X.T @ X) / n + alpha * np.eye(p)
    b = (X.T @ y) / n
    coeffs = _cho_solve(_cholesky(A), b)
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
    """Pairing of the fitted functional with the rows of one design (n, p) or
    of a stack of designs (..., p), each with the bits it gets alone."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] != len(fit.coeffs):
        raise ValueError(
            f"design matrix with {len(fit.coeffs)} columns required, "
            f"got shape {X.shape}")
    return X @ fit.coeffs + fit.intercept


def mse(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """Mean of squared differences over the last axis of two arrays of equal
    shape: a float for a 1-D pair, the row means (same bits) for a (B, m) pair."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim < 1 or pred.shape[-1] < 1:
        raise ValueError(f"equal non-empty shapes required, got {pred.shape}, {target.shape}")
    diff = pred - target
    means = np.add.reduce(diff * diff, axis=-1) / diff.shape[-1]
    return float(means) if means.ndim == 0 else means
