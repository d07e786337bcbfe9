"""Tests for the penalized regression fits.

Oracles: the decoupled soft-threshold solution on orthonormal designs, the
subgradient stationarity conditions checked directly on fitted
coefficients, closed-form solutions for identity designs, and, for the
lasso, the cyclic coordinate descent that ``lasso_fit`` ran before the
active-set solver (``_cd_lasso``).
"""
from __future__ import annotations

import dataclasses
import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from gammasig import RegressionFit, default_config, lasso_fit, mse, predict, ridge_fit
from gammasig import experiments, regress
from gammasig.signature import functional_matrix, gamma_signature


def lasso_objective(X, y, beta, alpha, c=0.0):
    r = y - c - X @ beta
    return float(r @ r + alpha * np.abs(beta).sum())


def _cd_lasso(X, y, alpha, max_iter=100_000, tol=1e-10, intercept=0.0):
    """Reference solver: cyclic coordinate descent on the same objective.

    Coordinate update: beta_j <- S(x_j . r + ||x_j||^2 beta_j, alpha/2) /
    ||x_j||^2 through the Gram matrix; all-zero columns keep 0; stops when a
    sweep moves no coefficient by ``tol`` or more.  Returns (beta, sweeps,
    converged).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    return beta, sweeps, converged


def assert_kkt(X, y, fit, alpha, c=0.0):
    """Subgradient conditions at alpha/2, with the slack of the
    regress/lasso-stationarity check (10 * 1e-10 * ||x_j||^2)."""
    r = y - c - X @ fit.coeffs
    for j in range(X.shape[1]):
        corr = float(X[:, j] @ r)
        slack = 10.0 * 1e-10 * float(X[:, j] @ X[:, j])
        if fit.coeffs[j] != 0.0:
            assert abs(corr - 0.5 * alpha * np.sign(fit.coeffs[j])) <= slack, j
        else:
            assert abs(corr) <= 0.5 * alpha + slack, j


def assert_matches_or_beats_cd(X, y, alpha, c=0.0):
    """lasso_fit converges, satisfies KKT and reaches the CD oracle's
    objective at 1e5 sweeps within 1e-12 relative."""
    fit = lasso_fit(X, y, alpha, intercept=c)
    assert fit.diagnostics["converged"]
    assert_kkt(X, y, fit, alpha, c)
    beta_cd, _, _ = _cd_lasso(X, y, alpha, intercept=c)
    new = lasso_objective(X, y, fit.coeffs, alpha, c)
    old = lasso_objective(X, y, beta_cd, alpha, c)
    assert new <= old + 1e-12 * max(old, 1.0)
    return fit


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


def test_mse_rows_equal_per_row_bits(rng):
    # calibration scores a chunk of test paths with one mse: each row must
    # get the bits (and a 1-D pair the float) it gets alone
    for _ in range(60):
        B, m = int(rng.integers(1, 12)), int(rng.integers(1, 3000))
        pred = rng.normal(size=(B, m)) * 10.0 ** rng.integers(-3, 4)
        target = pred + rng.normal(size=(B, m))
        rows = mse(pred, target)
        assert rows.shape == (B,)
        single = [mse(pred[b], target[b]) for b in range(B)]
        assert all(type(v) is float for v in single)
        assert np.array_equal(rows.view(np.uint64), np.array(single).view(np.uint64))
    for bad in ((np.ones((2, 3)), np.ones(3)), (np.ones((2, 0)), np.ones((2, 0))),
                (np.float64(1.0), np.float64(1.0))):
        with pytest.raises(ValueError):
            mse(*bad)


def test_mse_of_strided_inputs_has_the_bits_of_their_c_order_copies(rng):
    # calibration scores the pairing buffer's strided column view against a
    # strided slice of the simulator's buffer: the differences are formed
    # in one new C-ordered array, so each row is reduced as the rows of the
    # C-ordered copies are
    for B, m in ((2, 3), (3, 257), (7, 1000)):
        pred = rng.normal(size=(m + 1, 3, B))[1:, 2].T
        target = (10.0 * rng.normal(size=(2 * B, m)))[::2]
        assert not pred.flags.c_contiguous and not target.flags.c_contiguous
        expected = mse(np.ascontiguousarray(pred), np.ascontiguousarray(target))
        assert np.array_equal(mse(pred, target).view(np.uint64), expected.view(np.uint64))
        assert mse(pred[0], target[0]) == mse(pred[0].copy(), target[0].copy())


def test_regress_bits_independent_of_memory_layout(rng):
    # BLAS and numpy's reductions sum in an order set by their operands'
    # layout; every entry point takes its arrays in C order first, so a
    # Fortran-ordered copy of the same values gives the same bits
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    pred = rng.normal(size=(100, 1001))
    target = pred + rng.normal(size=(100, 1001))
    assert np.array_equal(bits(mse(np.asfortranarray(pred), np.asfortranarray(target))),
                          bits(mse(pred, target)))
    X = rng.normal(size=(200, 13))
    y = X @ rng.normal(size=13) + 0.1 * rng.normal(size=200)
    F = np.asfortranarray(X)
    assert not F.flags.c_contiguous
    for c_fit, f_fit in ((ridge_fit(X, y, 1e-3), ridge_fit(F, y, 1e-3)),
                         (lasso_fit(X, y, 1.0), lasso_fit(F, y, 1.0))):
        assert np.array_equal(bits(f_fit.coeffs), bits(c_fit.coeffs))
        assert f_fit.diagnostics == c_fit.diagnostics
        assert np.array_equal(bits(predict(c_fit, F)), bits(predict(c_fit, X)))


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
    with pytest.raises(ValueError):
        predict(fit, X[None])


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


def test_lasso_objective_monotone_in_steps(rng):
    # no active-set step raises the objective: capping the steps at k + 1
    # must never give a higher objective than capping them at k
    base = rng.normal(size=(30, 5))
    X = base @ (np.eye(5) + 0.5)
    y = rng.normal(size=30)
    alpha = 0.7
    objs = [float(y @ y)]
    for k in range(1, 13):
        fit = lasso_fit(X, y, alpha, max_iter=k)
        assert fit.diagnostics["n_iter"] <= k
        objs.append(lasso_objective(X, y, fit.coeffs, alpha))
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert fit.diagnostics["converged"]


#: Correlated designs in the oracle panel; random mixing makes some
#: coefficients change sign along the active-set path.
_CORRELATED_DESIGNS = 24


def _calibration_design(cfg, scheme):
    """Training design, target, alpha and intercept of a calibration."""
    plan = experiments._calibration_plans(cfg)[scheme]
    grid = cfg.grid()
    S, block = experiments._calibration_paths(
        cfg, grid, 0, 1, np.empty(experiments._chunk_values(cfg, 1, grid.n)))
    traj = gamma_signature(plan.driver(grid.times, block[0]), experiments.GAMMAS[scheme],
                           plan.functionals[0].trunc_level)
    s0 = cfg.model.s0 if cfg.experiment == "heston-calib" else cfg.model.s0[0]
    return functional_matrix(traj, plan.functionals), S[0], cfg.alpha, s0


@functools.cache
def _oracle_panel():
    """Seeded designs: correlated with mixed-sign mixing at three penalties,
    n < p, a zero column, alpha = 0, and two reduced calibration designs."""
    rng = np.random.default_rng(4242)
    panel = []
    for _ in range(_CORRELATED_DESIGNS // 3):
        X = rng.normal(size=(30, 6)) @ (np.eye(6) + 0.6 * rng.normal(size=(6, 6)))
        y = rng.normal(size=30) * 2.0
        panel += [(X, y, alpha, 0.0) for alpha in (0.5, 2.0, 8.0)]
    wide = rng.normal(size=(8, 15))
    panel.append((wide, rng.normal(size=8), 0.5, 0.0))
    zero_col = rng.normal(size=(20, 5))
    zero_col[:, 2] = 0.0
    panel.append((zero_col, rng.normal(size=20), 0.3, 0.0))
    tall = rng.normal(size=(30, 5))
    panel.append((tall, rng.normal(size=30), 0.0, 0.0))
    panel.append(_calibration_design(default_config("heston-calib", grid_n=200, n_test=1),
                                     "strat"))
    panel.append(_calibration_design(default_config("cantor-calib", grid_n=200, n_test=1),
                                     "ito"))
    return panel


@pytest.mark.parametrize("case", range(_CORRELATED_DESIGNS + 5))
def test_lasso_matches_or_beats_cd_oracle(case):
    X, y, alpha, c = _oracle_panel()[case]
    fit = assert_matches_or_beats_cd(X, y, alpha, c)
    assert np.all(fit.coeffs[np.einsum("ij,ij->j", X, X) == 0.0] == 0.0)


@pytest.mark.parametrize("alpha", [0.5, 0.0])
@pytest.mark.parametrize("design", ["identical", "collinear", "all-zero"])
def test_lasso_degenerate_designs(design, alpha):
    # a column in the span of the active columns makes the active Gram
    # singular: the fit must still end converged, without an exception
    rng = np.random.default_rng(99)
    X = rng.normal(size=(12, 4))
    y = X @ np.array([1.5, -1.0, 0.8, 0.0]) + 0.1 * rng.normal(size=12)
    if design == "identical":
        X[:, 3] = X[:, 0]
    elif design == "collinear":
        # orthogonal x_0, x_1 enter first; then x_3 = x_0 + x_1, which costs
        # less penalty than x_0 and x_1 together, can only enter by trading
        # x_1 away
        X[:, :3] = 3.0 * np.linalg.qr(X[:, :3])[0]
        X[:, 3] = X[:, 0] + X[:, 1]
        y = 3.0 * X[:, 0] + X[:, 1] + 0.05 * rng.normal(size=12)
    else:
        X[:] = 0.0
    fit = assert_matches_or_beats_cd(X, y, alpha)
    assert fit.diagnostics["n_iter"] < 100
    if design == "all-zero":
        assert np.all(fit.coeffs == 0.0) and fit.diagnostics["n_iter"] == 0
    if design == "collinear" and alpha > 0:
        assert fit.coeffs[1] == 0.0 and fit.coeffs[3] > 0.0


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


_HESTON = default_config("heston-calib").model


@pytest.mark.parametrize("overrides", [
    dict(grid_n=7, n_test=14, alpha=1e-3,
         model=dataclasses.replace(_HESTON, v0=5.0, theta=2.0, sigma=3.0, kappa=1.0,
                                   rho=0.0, mu=10.0)),
    dict(grid_n=4, n_test=6, alpha=1e-8, trunc_level=3,
         model=dataclasses.replace(_HESTON, v0=0.04, theta=0.1, sigma=0.3, kappa=0.0,
                                   rho=-1.0, mu=0.5)),
])
def test_lasso_exchange_steps_converge_without_warnings(overrides, capsys):
    # calibrations whose lasso takes an exchange step along a direction with
    # a zero component: they used to warn (NaN line-search points) and stop
    # unconverged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = experiments.run_calibration(default_config("heston-calib", **overrides))
    assert capsys.readouterr().err == ""
    for scheme in experiments.SCHEMES:
        assert report["schemes"][scheme]["fit"]["diagnostics"]["converged"], scheme


def test_lasso_converges_on_wide_heston_designs():
    # 6 rows and 13 columns, so active columns become dependent on the way
    # to the minimizer, which exists at every seed; 12 of these 31 seeds
    # used to stop unconverged or raise "collinear"
    model = dataclasses.replace(_HESTON, s0=42.98, v0=1.393, theta=0.754, kappa=7.83,
                                sigma=1.446, rho=-1.0, mu=7.70)
    for seed in range(31):
        cfg = default_config("heston-calib", seed, grid_n=5, n_test=5, alpha=1e-3,
                             model=model)
        for scheme in experiments.SCHEMES:
            X, y, alpha, c = _calibration_design(cfg, scheme)
            fit = lasso_fit(X, y, alpha, intercept=c)
            assert fit.diagnostics["converged"], (seed, scheme)
            assert_kkt(X, y, fit, alpha, c)


def test_lasso_failed_active_factorization_names_the_columns(monkeypatch):
    # a singular active Gram inside the homotopy is reported as collinear
    # active columns, not as the ridge's "use alpha > 0"
    def singular(A):
        if len(A) > 1:
            raise ValueError("normal equations are singular; use alpha > 0")
        return np.sqrt(A)

    monkeypatch.setattr(regress, "_cholesky", singular)
    X = np.eye(3)
    with pytest.raises(ValueError, match=r"^lasso at alpha=0\.1: the active columns "
                       r"0 \(1\), 1 \(2\) are collinear, so the active-set solve "
                       r"is singular$"):
        lasso_fit(X, np.array([3.0, 2.0, 1.0]), 0.1)


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


def _full_square_cholesky(A: np.ndarray) -> np.ndarray:
    """Reference: the outer-product Cholesky that updates the whole trailing
    square at each step, upper triangle included."""
    schur = np.array(A, dtype=np.float64)
    p = len(schur)
    chol = np.zeros((p, p))
    for k in range(p):
        col = schur[k:, k] / np.sqrt(schur[k, k])
        chol[k:, k] = col
        schur[k + 1:, k + 1:] -= np.multiply.outer(col[1:], col[1:])
    return chol


@pytest.mark.parametrize("p", [1, 2, 7, 43, 64, 65, 66, 129, 300])
def test_cholesky_bits_equal_full_square_update(rng, p):
    # the panelled lower-trapezoid update gives every entry the same
    # subtractions in the same order, so the factor keeps its bits; p from
    # one panel to several, with a short last one
    X = rng.normal(size=(p + 3, p))
    A = X.T @ X / p + 1e-3 * np.eye(p)
    got = regress._cholesky(A.copy())
    assert np.array_equal(got.view(np.uint64), _full_square_cholesky(A).view(np.uint64))
    assert not np.triu(got, 1).any()


def test_ridge_fit_holds_one_gram_and_one_factor(rng):
    # the Gram is scaled and shifted in place and factored over one copy of
    # itself, so about two p x p arrays are live at the peak, not three
    n, p = 400, 600
    X, y = rng.normal(size=(n, p)), rng.normal(size=n)
    tracemalloc.start()
    try:
        ridge_fit(X, y, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * p * p * 8


def test_lasso_fit_holds_two_grams(rng):
    # with a zero column, the Gram's block of nonzero columns is formed
    # while the Gram is alive, so about two p x p arrays are live at the
    # peak, as the run-size model counts; an alpha with 51 active columns
    # keeps the homotopy short
    n, p = 400, 600
    X, y = rng.normal(size=(n, p)), rng.normal(size=n)
    X[:, 0] = 0.0
    tracemalloc.start()
    try:
        lasso_fit(X, y, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * p * p * 8


def test_lasso_fit_without_zero_columns_holds_one_gram(rng):
    # with no zero column the Gram is its own block of nonzero columns and
    # is not copied: at an alpha past max |2 X'y|, where the homotopy takes
    # no step, about one p x p array is live at the peak, not two
    n, p = 400, 600
    X, y = rng.normal(size=(n, p)), rng.normal(size=n)
    alpha = 4.0 * float(np.max(np.abs(X.T @ y)))
    tracemalloc.start()
    try:
        fit = lasso_fit(X, y, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fit.coeffs.any() and fit.diagnostics["n_iter"] == 0
    assert peak <= 1.25 * p * p * 8, peak / (p * p * 8)


def _numpy_buffer_bytes() -> int:
    """The transient bytes numpy takes beside the result of one
    fancy-indexed copy: its fixed iteration buffers, whatever the size."""
    A, index = np.ones((128, 128)), np.arange(128)
    tracemalloc.start()
    try:
        B = A[np.ix_(index, index)]
        return tracemalloc.get_traced_memory()[1] - B.nbytes
    finally:
        tracemalloc.stop()


def test_lasso_fit_at_small_alpha_holds_what_the_run_size_model_counts(rng):
    # at a small alpha the active set grows to all n rows: the homotopy
    # holds the Gram, one active-set factor (the last piece's is freed
    # first) and the active columns, p^2 + k^2 + p k values, within the
    # p (p + 2k) that ExperimentConfig._largest_arrays counts; numpy's fixed
    # iteration buffers come on top
    n, p = 80, 105
    X, y = rng.normal(size=(n, p)), rng.normal(size=n)
    buffers = _numpy_buffer_bytes()
    tracemalloc.start()
    try:
        fit = lasso_fit(X, y, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(fit.coeffs) == n and fit.diagnostics["converged"]
    assert peak <= p * (p + 2 * n) * 8 + buffers, (peak, buffers)


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
    back = json.loads(json.dumps(fit.to_json_dict()))
    assert back["words"] == ["1", "1.2"]
    assert back["coeffs"] == [float(c) for c in fit.coeffs]
    assert back["intercept"] == fit.intercept
    assert back["alpha"] == fit.alpha
    assert back["objective_kind"] == fit.objective_kind
    assert back["diagnostics"] == fit.diagnostics
    with pytest.raises(ValueError):
        RegressionFit(words=((1,),), coeffs=np.array([1.0, 2.0]),
                      intercept=0.0, alpha=0.0, objective_kind="lasso-sum")
