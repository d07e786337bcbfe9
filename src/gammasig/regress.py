"""Penalized linear regression on signature features.

Two objectives, matching the experiments that use them:

* ``lasso_fit`` minimizes the unnormalized sum-of-squares objective

      sum_i (y_i - c - (X beta)_i)^2 + alpha * ||beta||_1

  by cyclic coordinate descent.  Note the soft-threshold constant is
  ``alpha / 2`` because the quadratic term carries no 1/2 and no 1/N; this
  differs from the common library convention (which divides the quadratic
  term by 2N).  The offset ``c`` is a fixed, unpenalized intercept supplied
  by the caller (it is not fitted).

* ``ridge_fit`` minimizes the mean objective

      (1/N) * sum_i (y_i - (X l)_i)^2 + alpha * ||l||_2^2

  in closed form via the SPD system (X'X/N + alpha I) l = X'y/N.  No
  column is excluded from the penalty.

Features are used as given: columns are neither centred nor rescaled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .tensor import Word, parse_word, word_str

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

    @classmethod
    def from_json_dict(cls, data) -> "RegressionFit":
        return cls(words=tuple(parse_word(w) for w in data["words"]),
                   coeffs=np.asarray(data["coeffs"], dtype=np.float64),
                   intercept=float(data["intercept"]),
                   alpha=float(data["alpha"]),
                   objective_kind=data["objective_kind"],
                   diagnostics=dict(data.get("diagnostics", {})))


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


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              max_iter: int = 100_000, tol: float = 1e-10,
              words: Sequence[Word] | None = None,
              intercept: float = 0.0) -> RegressionFit:
    """Cyclic coordinate descent for the sum-of-squares lasso objective.

    Coordinate update: beta_j <- S(x_j . r + ||x_j||^2 beta_j, alpha/2) /
    ||x_j||^2, realized through the Gram matrix (x_j . r = (X'y)_j -
    (X'X beta)_j with the gradient maintained incrementally).  All-zero
    columns keep coefficient 0.  Convergence: max coefficient change of a
    sweep below ``tol``.  ``intercept`` is subtracted from y before fitting
    and stored for :func:`predict`; it is neither fitted nor penalized.
    """
    X, y = _validate_design(X, y)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    active = [j for j in range(p) if col_sq[j] > 0.0]
    threshold = 0.5 * alpha
    neg_threshold = -threshold
    # Gram form of the cyclic update: x_j.r = c_j - (G beta)_j with
    # G = X'X maintained incrementally; O(p) per changed coordinate
    # instead of O(n) regardless of n.  Only active columns are ever read,
    # so every list is restricted to them (position a <-> column active[a]).
    gram = (X.T @ X)[np.ix_(active, active)].tolist()
    c = (X.T @ (y - intercept))[active].tolist()
    sq = col_sq[active].tolist()
    positions = range(len(active))
    beta_active = [0.0] * len(active)
    grad = [0.0] * len(active)  # (G beta)_j
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for a in positions:
            old = beta_active[a]
            rho = c[a] - grad[a] + sq[a] * old
            # soft threshold S(rho, alpha/2), divided by ||x_j||^2
            if rho > threshold:
                new = (rho - threshold) / sq[a]
            elif rho < neg_threshold:
                new = (rho + threshold) / sq[a]
            else:
                new = 0.0
            if new != old:
                delta = new - old
                row = gram[a]
                for k in positions:
                    grad[k] += row[k] * delta
                beta_active[a] = new
                if delta > max_delta:
                    max_delta = delta
                elif -delta > max_delta:
                    max_delta = -delta
        if max_delta < tol:
            converged = True
            break
    beta = np.zeros(p)
    beta[active] = beta_active
    pred = X @ beta + intercept
    fit_words = tuple(tuple(w) for w in words) if words is not None else _default_words(p)
    return RegressionFit(
        words=fit_words, coeffs=beta, intercept=float(intercept),
        alpha=float(alpha), objective_kind="lasso-sum",
        diagnostics={"in_sample_mse": float(np.mean((pred - y) ** 2)),
                     "n_iter": sweeps, "converged": converged})


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
    try:
        coeffs = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "normal equations are singular; use alpha > 0") from exc
    residual = float(np.max(np.abs(A @ coeffs - b)))
    scale = float(np.max(np.abs(A)) * max(np.max(np.abs(coeffs)), 1.0)
                  + np.max(np.abs(b)) + 1e-300)
    if residual > 1e-10 * scale:
        raise ArithmeticError(
            f"ridge normal-equation residual {residual:.3e} exceeds "
            f"1e-10 * scale ({scale:.3e})")
    pred = X @ coeffs
    fit_words = tuple(tuple(w) for w in words) if words is not None else _default_words(p)
    return RegressionFit(
        words=fit_words, coeffs=coeffs, intercept=0.0,
        alpha=float(alpha), objective_kind="ridge-mean",
        diagnostics={"in_sample_mse": float(np.mean((pred - y) ** 2)),
                     "residual_inf": residual})


def predict(fit: RegressionFit, X: np.ndarray) -> np.ndarray:
    """Row-wise pairing of the fitted functional with feature rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(fit.coeffs):
        raise ValueError(
            f"design matrix with {len(fit.coeffs)} columns required, "
            f"got shape {X.shape}")
    return X @ fit.coeffs + fit.intercept


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean of squared differences."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if len(pred) != len(target):
        raise ValueError("length mismatch")
    if len(pred) < 1:
        raise ValueError("need at least one entry")
    return float(np.mean((pred - target) ** 2))
