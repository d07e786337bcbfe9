"""Tests for the penalized regression fits.

Oracles: the decoupled soft-threshold solution on orthonormal designs, the
subgradient stationarity conditions checked directly on fitted
coefficients, and closed-form solutions for identity designs.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from gammasig import RegressionFit, lasso_fit, mse, predict, ridge_fit


def lasso_objective(X, y, beta, alpha, c=0.0):
    r = y - c - X @ beta
    return float(r @ r + alpha * np.abs(beta).sum())


def soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


# ---------------------------------------------------------------------------
# Frozen closed-form examples
# ---------------------------------------------------------------------------


def test_lasso_identity_design_examples():
    X = np.eye(2)
    y = np.array([3.0, 0.5])
    assert np.allclose(lasso_fit(X, y, 0.0).coeffs, [3.0, 0.5])
    # threshold alpha/2 = 0.5 shrinks each coordinate independently
    assert np.allclose(lasso_fit(X, y, 1.0).coeffs, [2.5, 0.0])
    assert np.allclose(lasso_fit(X, np.zeros(2), 1.0).coeffs, [0.0, 0.0])
    big = lasso_fit(X, y, 10.0)
    assert np.all(big.coeffs == 0.0)


def test_ridge_identity_design_example():
    X = np.eye(2)
    y = np.array([1.0, 2.0])
    # (X'X/2 + 0.5 I) l = X'y/2  ->  l = y/2
    fit = ridge_fit(X, y, 0.5)
    assert np.allclose(fit.coeffs, [0.5, 1.0])
    assert fit.objective_kind == "ridge-mean"


def test_mse_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([2.0], [1.0]) == 1.0
    assert mse([0.0, 5.0], [0.0, 0.0]) == 12.5
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


def test_predict_basics():
    fit = RegressionFit(words=((1,), (2,)), coeffs=np.array([0.0, 0.0]),
                        intercept=1.5, alpha=0.0, objective_kind="lasso-sum")
    X = np.arange(6.0).reshape(3, 2)
    assert np.allclose(predict(fit, X), 1.5)
    hot = RegressionFit(words=((1,), (2,)), coeffs=np.array([0.0, 1.0]),
                        intercept=0.0, alpha=0.0, objective_kind="lasso-sum")
    assert np.allclose(predict(hot, X), X[:, 1])
    with pytest.raises(ValueError):
        predict(fit, X[:, :1])
    with pytest.raises(ValueError):
        predict(fit, X.ravel())


def test_lasso_unpenalized_square_solve(rng):
    X = rng.normal(size=(5, 5)) + 3 * np.eye(5)
    beta_true = rng.normal(size=5)
    y = X @ beta_true
    fit = lasso_fit(X, y, 0.0)
    assert np.allclose(fit.coeffs, beta_true, atol=1e-8)
    assert fit.diagnostics["converged"]


# ---------------------------------------------------------------------------
# Orthonormal-design oracle and stationarity
# ---------------------------------------------------------------------------


def test_lasso_orthonormal_soft_threshold_oracle(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(20, 5)))
    y = rng.normal(size=20) * 3.0
    for alpha in (0.0, 0.2, 1.0, 4.0):
        fit = lasso_fit(Q, y, alpha)
        expect = soft(Q.T @ y, alpha / 2.0)
        assert np.allclose(fit.coeffs, expect, atol=1e-9), alpha


def test_lasso_stationarity_conditions(rng):
    base = rng.normal(size=(40, 6))
    X = base @ (np.eye(6) + 0.4 * np.ones((6, 6)))  # correlated columns
    y = rng.normal(size=40) * 2.0
    alpha = 1.3
    fit = lasso_fit(X, y, alpha)
    r = y - X @ fit.coeffs
    g = 2.0 * (X.T @ r)
    for j in range(6):
        if fit.coeffs[j] != 0.0:
            assert g[j] == pytest.approx(alpha * np.sign(fit.coeffs[j]),
                                         abs=1e-6)
        else:
            assert abs(g[j]) <= alpha + 1e-6


def test_lasso_objective_monotone_in_sweeps(rng):
    base = rng.normal(size=(30, 5))
    X = base @ (np.eye(5) + 0.5)
    y = rng.normal(size=30)
    alpha = 0.7
    objs = []
    for k in (1, 2, 3, 5, 10, 200):
        fit = lasso_fit(X, y, alpha, max_iter=k)
        objs.append(lasso_objective(X, y, fit.coeffs, alpha))
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_lasso_beats_or_matches_random_perturbations(rng):
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    alpha = 0.9
    fit = lasso_fit(X, y, alpha)
    best = lasso_objective(X, y, fit.coeffs, alpha)
    for _ in range(200):
        trial = fit.coeffs + rng.normal(size=4) * rng.choice([1e-3, 0.1, 1.0])
        assert lasso_objective(X, y, trial, alpha) >= best - 1e-9


# ---------------------------------------------------------------------------
# Lasso options
# ---------------------------------------------------------------------------


def test_lasso_fixed_intercept_shifts_targets(rng):
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15) + 4.0
    with_c = lasso_fit(X, y, 0.5, intercept=4.0)
    shifted = lasso_fit(X, y - 4.0, 0.5)
    assert np.allclose(with_c.coeffs, shifted.coeffs, atol=1e-12)
    assert with_c.intercept == 4.0
    assert np.allclose(predict(with_c, X),
                       predict(shifted, X) + 4.0, atol=1e-12)


def test_lasso_zero_column_pinned(rng):
    X = rng.normal(size=(20, 3))
    X[:, 1] = 0.0
    y = rng.normal(size=20)
    fit = lasso_fit(X, y, 0.3)
    assert fit.coeffs[1] == 0.0


def test_lasso_diagnostics(rng):
    base = rng.normal(size=(30, 5))
    X = base @ (np.eye(5) + 0.6)
    y = rng.normal(size=30)
    hasty = lasso_fit(X, y, 0.1, max_iter=1)
    assert not hasty.diagnostics["converged"]
    assert hasty.diagnostics["n_iter"] == 1
    done = lasso_fit(X, y, 0.1)
    assert done.diagnostics["converged"]
    assert done.diagnostics["in_sample_mse"] == pytest.approx(
        mse(predict(done, X), y), rel=1e-12)


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------


def test_ridge_normal_equation_residual(rng):
    X = rng.normal(size=(50, 8))
    y = rng.normal(size=50)
    fit = ridge_fit(X, y, 0.3)
    n, p = X.shape
    A = X.T @ X / n + 0.3 * np.eye(p)
    b = X.T @ y / n
    res = np.max(np.abs(A @ fit.coeffs - b))
    assert res <= 1e-10 * (np.max(np.abs(A)) + np.max(np.abs(b)) + 1.0)
    assert fit.diagnostics["residual_inf"] <= 1e-10 * (
        np.max(np.abs(A)) * max(np.max(np.abs(fit.coeffs)), 1.0)
        + np.max(np.abs(b)))
    assert fit.diagnostics["in_sample_mse"] == pytest.approx(
        mse(predict(fit, X), y), rel=1e-12)


def test_ridge_penalty_shrinks_norm(rng):
    X = rng.normal(size=(40, 6))
    y = rng.normal(size=40) * 5.0
    norms = [np.linalg.norm(ridge_fit(X, y, a).coeffs) for a in (1.0, 10.0, 100.0)]
    assert norms[0] > norms[1] > norms[2]


def test_ridge_recovers_column_space_solution(rng):
    X = rng.normal(size=(60, 4))
    w = rng.normal(size=4)
    y = X @ w
    fit = ridge_fit(X, y, 1e-12)
    assert np.max(np.abs(fit.coeffs - w)) <= 1e-6


def test_ridge_singular_without_penalty():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        ridge_fit(X, np.array([1.0, 1.0, 1.0]), 0.0)
    fit = ridge_fit(X, np.array([1.0, 1.0, 1.0]), 0.1)
    assert np.isfinite(fit.coeffs).all()


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------


def test_fit_input_validation(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    for fn in (lasso_fit, ridge_fit):
        with pytest.raises(ValueError):
            fn(X, y, -0.1)
        with pytest.raises(ValueError):
            fn(X.ravel(), y, 0.1)
        with pytest.raises(ValueError):
            fn(X, y[:-1], 0.1)
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            fn(bad, y, 0.1)
        with pytest.raises(ValueError):
            fn(np.empty((0, 2)), np.empty(0), 0.1)


def test_regression_fit_serialization(rng):
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    fit = lasso_fit(X, y, 0.4, words=[(1,), (1, 2)])
    assert fit.words == ((1,), (1, 2))
    back = RegressionFit.from_json_dict(json.loads(json.dumps(fit.to_json_dict())))
    assert back.words == fit.words
    assert np.allclose(back.coeffs, fit.coeffs)
    assert back.alpha == fit.alpha
    assert back.objective_kind == fit.objective_kind
    assert back.diagnostics == fit.diagnostics
    with pytest.raises(ValueError):
        RegressionFit(words=((1,),), coeffs=np.array([1.0, 2.0]),
                      intercept=0.0, alpha=0.0, objective_kind="lasso-sum")
