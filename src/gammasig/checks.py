"""Invariant suites behind the ``check`` CLI subcommand.

Each module of the library carries a set of documented invariants; this
module realizes them as executable checks with fixed seeds so a run is
deterministic.  ``run_all`` returns a machine-readable report; any failure
is report content, not an exception.

The ``inject_fault`` hook force-breaks a known property as a negative
control.  Supported: ``"lasso-threshold"`` fits the lasso with a doubled
penalty and then verifies the stationarity conditions of the requested
penalty, which must fail.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

from . import models, payoffs, regress, signature, tensor
from .models import CantorParams, Heston2Params, HestonParams, SimGrid
from .payoffs import PayoffSpec
from .signature import SamplePath, augment_path, gamma_signature, gamma_signature_chen
from .tensor import Alphabet, TensorPoly, concat, group_inverse, ito_strat_functional
from .tensor import enumerate_words, quasi_shuffle, shuffle

__all__ = ["run_all", "MODULES"]

CheckResult = tuple[bool, str]


def _random_int_poly(rng: np.random.Generator, alphabet: Alphabet,
                     level: int, n_terms: int, scalar=None) -> TensorPoly:
    words = enumerate_words(alphabet, level)
    terms = {}
    for k in rng.choice(len(words), size=n_terms, replace=False):
        terms[words[k]] = int(rng.integers(-5, 6)) or 1
    if scalar is not None:
        terms[()] = scalar
    return TensorPoly(alphabet, level, terms)


def _random_path(rng: np.random.Generator, n: int, d: int) -> SamplePath:
    times = np.sort(rng.uniform(0.0, 1.0, n + 1))
    times[0], times[-1] = 0.0, 1.0
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0.0, 1.0, n + 1))
        times[0], times[-1] = 0.0, 1.0
    values = np.cumsum(rng.normal(0.0, 0.3, (n + 1, d)), axis=0)
    values[0] = rng.normal(0.0, 1.0, d)
    return SamplePath(times, values, Alphabet(d))


def _smooth_path(n: int, d: int = 2) -> SamplePath:
    t = np.linspace(0.0, 1.0, n + 1)
    values = np.column_stack([np.sin(2 * np.pi * t) + 0.3 * t * t,
                              0.5 * np.cos(3 * np.pi * t) + t][:d])
    return SamplePath(t, values, Alphabet(d))


def _fit_order(ns, errs) -> float:
    """Least-squares slope of log(err) against log(1/n)."""
    x = np.log(1.0 / np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def _tensor_concat_associative(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(101)
    alphabet = Alphabet(3, has_time=True)  # 4 letters
    for _ in range(20):
        a, b, c = (_random_int_poly(rng, alphabet, 4, 6) for _ in range(3))
        if concat(concat(a, b), c) != concat(a, concat(b, c)):
            return False, "associativity violated on random integer polys"
    return True, "20 random integer triples, level 4, 4 letters, exact"


def _tensor_shuffle_counting(fault: str | None) -> CheckResult:
    alphabet = Alphabet(2, has_time=True)  # letters 0,1,2
    n_pairs = 0
    for total in range(0, 6):
        for la in range(0, total + 1):
            for I in _words_of_length(alphabet, la):
                for J in _words_of_length(alphabet, total - la):
                    left = shuffle(I, J, alphabet)
                    if left != shuffle(J, I, alphabet):
                        return False, f"shuffle not commutative at {I},{J}"
                    total_coeff = sum(c for _, c in left.items())
                    if total_coeff != math.comb(total, la):
                        return False, (f"coefficient sum {total_coeff} != "
                                       f"binom({total},{la}) at {I},{J}")
                    n_pairs += 1
    return True, f"{n_pairs} word pairs up to total degree 5, exact"


def _words_of_length(alphabet: Alphabet, length: int):
    words = [w for w in enumerate_words(alphabet, length) if len(w) == length]
    return words


def _tensor_quasi_shuffle(fault: str | None) -> CheckResult:
    bracketed = Alphabet(2, has_time=True, has_brackets=True)
    plain = Alphabet(2, has_time=True)
    n_pairs = 0
    for total in range(0, 5):
        for la in range(0, total + 1):
            for I in _words_of_length(plain, la):
                for J in _words_of_length(plain, total - la):
                    qs = quasi_shuffle(I, J, bracketed)
                    if qs != quasi_shuffle(J, I, bracketed):
                        return False, f"quasi-shuffle not commutative at {I},{J}"
                    # on the bracket-free alphabet every contraction is absent
                    reduced = quasi_shuffle(I, J, plain)
                    if reduced != shuffle(I, J, plain):
                        return False, f"bracket-free quasi-shuffle != shuffle at {I},{J}"
                    n_pairs += 1
    # time-only words never produce a present bracket even when brackets exist
    for I in [(0,), (0, 0), (0, 0, 0)]:
        for J in [(0,), (0, 0)]:
            if quasi_shuffle(I, J, bracketed) != shuffle(I, J, bracketed):
                return False, f"time-only quasi-shuffle != shuffle at {I},{J}"
    return True, f"{n_pairs} pairs: commutative, reduces to shuffle without brackets"


def _tensor_group_inverse(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(202)
    alphabet = Alphabet(3, has_time=True)
    unit = TensorPoly.unit(alphabet, 4)
    for _ in range(10):
        a = _random_int_poly(rng, alphabet, 4, 5, scalar=Fraction(1))
        a = TensorPoly(alphabet, 4, {w: Fraction(c) for w, c in a.items()})
        inv = group_inverse(a)
        if concat(a, inv) != unit or concat(inv, a) != unit:
            return False, "group inverse round trip failed (rational arithmetic)"
    return True, "10 random rational polys with unit scalar part, both sides exact"


def _tensor_conversion_time_only(fault: str | None) -> CheckResult:
    alphabet = Alphabet(2, has_time=True, has_brackets=True)
    for length in range(0, 5):
        word = (0,) * length
        ell = ito_strat_functional(word, alphabet)
        if ell != TensorPoly.basis(alphabet, ell.trunc_level, word):
            return False, f"l^I != e_I for time-only word of length {length}"
    return True, "time-only words up to length 4: all bracket terms absent"


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

def _signature_chen_exactness(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(2):
        path = _random_path(rng, 16, 2)
        for gamma in (0.0, 0.25, 0.5, 1.0):
            full = gamma_signature(path, gamma, 4)
            end = full.end
            scale = np.max(np.abs([c for _, c in end.items()]))
            for s in range(path.n_steps + 1):
                left = gamma_signature(path.sub_path(0, s), gamma, 4).end
                right = gamma_signature(path.sub_path(s, path.n_steps), gamma, 4).end
                glued = concat(left, right)
                diff = np.max(np.abs([c for _, c in (glued - end).items()]), initial=0.0)
                worst = np.maximum(worst, diff / max(1.0, scale))
    ok = worst <= 1e-12
    return ok, f"max relative splice residual {worst:.3e} (tol 1e-12)"


def _signature_oracle_equivalence(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        path = _random_path(rng, n, d)
        fast = gamma_signature(path, gamma, N)
        slow = gamma_signature_chen(path, gamma, N)
        for m in range(N):
            a, b = fast.levels[m], slow.levels[m]
            scale = max(1.0, float(np.max(np.abs(b))))
            worst = np.maximum(worst, float(np.max(np.abs(a - b))) / scale)
    ok = worst <= 1e-10
    return ok, f"200 random paths (n<=50, d<=3, N<=4): max rel err {worst:.3e} (tol 1e-10)"


def _signature_degree2_identities(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(505)
    worst_qs = worst_sh = 0.0
    for _ in range(100):
        path = _random_path(rng, 30, 2)
        aug = augment_path(path, 0.0, include_time=True, include_brackets=True)
        S0 = gamma_signature(aug, 0.0, 2)
        for i in (1, 2):
            for j in range(i, 3):
                lhs = S0.coeff_path((i,)) * S0.coeff_path((j,))
                eps = aug.alphabet.bracket_letter(i, j)
                rhs = (S0.coeff_path((i, j)) + S0.coeff_path((j, i))
                       + S0.coeff_path((eps,)))
                scale = max(1.0, float(np.max(np.abs(lhs))))
                worst_qs = np.maximum(worst_qs, float(np.max(np.abs(lhs - rhs))) / scale)
        half = augment_path(path, 0.5, include_time=True, include_brackets=False)
        Sh = gamma_signature(half, 0.5, 2)
        for i in (1, 2):
            for j in range(i, 3):
                lhs = Sh.coeff_path((i,)) * Sh.coeff_path((j,))
                rhs = Sh.coeff_path((i, j)) + Sh.coeff_path((j, i))
                scale = max(1.0, float(np.max(np.abs(lhs))))
                worst_sh = np.maximum(worst_sh, float(np.max(np.abs(lhs - rhs))) / scale)
    ok = worst_qs <= 1e-12 and worst_sh <= 1e-12
    return ok, (f"100 paths: quasi-shuffle residual {worst_qs:.3e}, "
                f"shuffle residual {worst_sh:.3e} (tol 1e-12)")


def _signature_gamma1_symmetry(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        path = _random_path(rng, 25, 2)
        back = gamma_signature(path, 1.0, 2).levels[1]
        ito = gamma_signature(path, 0.0, 2).levels[1]
        qv = signature.quadratic_variation(path, 0.0).reshape(len(path.times), -1)
        scale = max(1.0, float(np.max(np.abs(back))))
        worst = np.maximum(worst, float(np.max(np.abs(back - (ito + qv)))) / scale)
    ok = worst <= 1e-12
    return ok, f"100 paths: level-2 backward = level-2 left + QV, residual {worst:.3e}"


_REFINEMENT_NS = (250, 500, 1000, 2000)


def _quasi_shuffle_deg3_residual(n: int) -> float:
    """Worst on-grid residual of the quasi-shuffle identity at |I|+|J| = 3.

    Taken over every word pair of the full augmented alphabet.  Pairs of
    pure base letters satisfy the identity exactly on the grid (left-point
    iterated sums with the discrete bracket form a quasi-shuffle character);
    the refinement content comes from words with time or bracket letters,
    whose contractions are absent from the alphabet and dropped.
    """
    path = _smooth_path(n)
    aug = augment_path(path, 0.0, include_time=True, include_brackets=True)
    S = gamma_signature(aug, 0.0, 3)
    end = S.end
    worst = 0.0
    words = enumerate_words(aug.alphabet, 2)
    for I in words:
        for J in words:
            if not I or not J or len(I) + len(J) != 3:
                continue
            lhs = end.coeff(I) * end.coeff(J)
            rhs = sum(float(c) * end.coeff(w)
                      for w, c in quasi_shuffle(I, J, aug.alphabet).items())
            worst = np.maximum(worst, abs(lhs - rhs))
    return worst


def _conversion_residual(n: int) -> float:
    path = _smooth_path(n)
    aug = augment_path(path, 0.0, include_time=True, include_brackets=True)
    S_ito = gamma_signature(aug, 0.0, 3).end
    S_strat = gamma_signature(aug, 0.5, 3).end
    worst = 0.0
    for I in enumerate_words(aug.alphabet, 3):
        lhs = S_ito.coeff(I)
        rhs = sum(float(c) * S_strat.coeff(w)
                  for w, c in ito_strat_functional(I, aug.alphabet).items())
        worst = np.maximum(worst, abs(lhs - rhs))
    return worst


def _signature_refinement_order(fault: str | None) -> CheckResult:
    qs_errs = [_quasi_shuffle_deg3_residual(n) for n in _REFINEMENT_NS]
    conv_errs = [_conversion_residual(n) for n in _REFINEMENT_NS]
    qs_order = _fit_order(_REFINEMENT_NS, qs_errs)
    conv_order = _fit_order(_REFINEMENT_NS, conv_errs)
    ok = qs_order >= 0.9 and conv_order >= 0.9
    return ok, (f"orders in 1/n over n={_REFINEMENT_NS}: degree-3 quasi-shuffle "
                f"{qs_order:.2f}, conversion (|I|<=3) {conv_order:.2f} (need >= 0.9)")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _models_determinism(fault: str | None) -> CheckResult:
    heston = HestonParams(1.0, 0.08, 0.001, 0.5, 0.15, 0.25, -0.5)
    grid = SimGrid(1.0, 64, 42)
    a = models.simulate_heston_batch(heston, grid, [3])
    b = models.simulate_heston_batch(heston, grid, [3])
    if not all(np.array_equal(a[name], b[name]) for name in a):
        return False, "repeated Heston call not bit-identical"
    batch = models.simulate_heston_batch(heston, grid, [5, 3, 9])
    if not all(np.array_equal(batch[name][1], a[name][0]) for name in a):
        return False, "Heston path depends on batch composition"
    cantor = CantorParams(s0=(0.0,), vol_kind="tanh")
    c1 = models.simulate_cantor_sde_batch(cantor, grid, [7])
    c2 = models.simulate_cantor_sde_batch(cantor, grid, [8, 7])
    if not (np.array_equal(c2["S"][1], c1["S"][0])
            and np.array_equal(c2["W_C"][1], c1["W_C"][0])
            and np.array_equal(c2["C"], c1["C"])):
        return False, "Cantor path depends on batch composition"
    h2 = Heston2Params.build(
        HestonParams(100.0, 0.04, 0.0, 2.0, 0.04, 0.5, -0.6),
        HestonParams(80.0, 0.09, 0.0, 1.8, 0.09, 0.6, -0.5),
        corr_b1b2=0.3, corr_w1w2=0.5, corr_b1w1=-0.6, corr_b2w2=-0.5)
    p1 = models.simulate_heston2_batch(h2, grid, [2])
    p2 = models.simulate_heston2_batch(h2, grid, [0, 2])
    if not all(np.array_equal(p2[name][1], p1[name][0]) for name in p1):
        return False, "two-asset Heston path depends on batch composition"
    return True, "per-path streams: repeat/batch/order all bit-identical"


def _models_heston_positivity(fault: str | None) -> CheckResult:
    grid = SimGrid(1.0, 500, 11)
    for sigma in (0.25, 1.5):
        params = HestonParams(1.0, 0.04, 0.0, 0.5, 0.15, sigma, -0.5)
        V = models.simulate_heston_batch(params, grid, range(50))["V"]
        if float(np.min(V)) < 0.0:
            return False, f"stored variance dipped below 0 at sigma={sigma}"
    return True, "100 paths x 500 steps, sigma up to 1.5: stored V >= 0 throughout"


def _models_cantor_qv(fault: str | None) -> CheckResult:
    B = 3000
    sum_sq = {}
    ratios = []
    err_fine = []
    for seed in range(5):
        errs = {}
        for n in (500, 2000):
            grid = SimGrid(1.0, n, seed)
            C = models.cantor_function(grid.times)
            dC = np.clip(np.diff(C), 0.0, None)
            sum_sq[n] = float(np.sum(dC * dC))
            z = np.stack([models.path_rng(seed, i).standard_normal(n) for i in range(B)])
            qv = np.cumsum((np.sqrt(dC)[None, :] * z) ** 2, axis=1)
            qv = np.concatenate([np.zeros((B, 1)), qv], axis=1)
            errs[n] = float(np.max(np.abs(qv.mean(axis=0) - C)))
        ratios.append(errs[2000] / errs[500])
        err_fine.append(errs[2000])
    med_ratio = float(np.median(ratios))
    theo_ratio = math.sqrt(sum_sq[2000] / sum_sq[500])
    max_fine = float(np.max(err_fine))
    ok = med_ratio <= 0.85 and max_fine <= 0.01 and theo_ratio <= 0.75
    return ok, (f"QV of W_C vs C(t), {B} paths x 5 seeds: median error ratio "
                f"(n=2000 vs 500) {med_ratio:.2f} (<= 0.85), max fine-grid error "
                f"{max_fine:.4f} (<= 0.01), noise-scale ratio {theo_ratio:.2f} "
                f"(<= 0.75; the Cantor occupation measure decays slower than "
                f"Brownian, so exact halving is not attainable)")


# ---------------------------------------------------------------------------
# regress
# ---------------------------------------------------------------------------

def _lasso_instance(rng: np.random.Generator):
    X = rng.normal(0.0, 1.0, (60, 8))
    beta = np.zeros(8)
    beta[[0, 3, 5]] = [1.5, -2.0, 0.7]
    y = X @ beta + rng.normal(0.0, 0.05, 60)
    return X, y


def _regress_lasso_stationarity(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(707)
    X, y = _lasso_instance(rng)
    alpha = 4.0
    fit_alpha = alpha * 2.0 if fault == "lasso-threshold" else alpha
    fit = regress.lasso_fit(X, y, fit_alpha)
    beta = np.asarray(fit.coeffs)
    r = y - X @ beta
    tol = 1e-10
    for j in range(X.shape[1]):
        corr = float(X[:, j] @ r)
        col_sq = float(X[:, j] @ X[:, j])
        slack = 10.0 * tol * col_sq
        if beta[j] != 0.0:
            if abs(corr - 0.5 * alpha * np.sign(beta[j])) > slack:
                return False, (f"active coordinate {j}: partial residual "
                               f"correlation {corr:.6f} != alpha/2 = {alpha / 2}")
        elif abs(corr) > 0.5 * alpha + slack:
            return False, (f"zero coordinate {j}: |correlation| {abs(corr):.6f} "
                           f"> alpha/2 = {alpha / 2}")
    return True, "KKT conditions hold at alpha/2 within 10*tol*||col||^2"


def _regress_lasso_monotone(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(808)
    X, y = _lasso_instance(rng)
    alpha = 2.0
    prev = float(np.dot(y, y))  # objective at beta = 0
    for steps in range(1, 9):
        fit = regress.lasso_fit(X, y, alpha, max_iter=steps)
        beta = np.asarray(fit.coeffs)
        obj = float(np.sum((y - X @ beta) ** 2) + alpha * np.sum(np.abs(beta)))
        if obj > prev + 1e-12 * max(1.0, prev):
            return False, f"objective increased at step {steps}: {prev} -> {obj}"
        prev = obj
    return True, "objective non-increasing over 8 active-set steps"


def _regress_ridge_residual(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(909)
    X = rng.normal(0.0, 1.0, (80, 10))
    y = rng.normal(0.0, 1.0, 80)
    fit = regress.ridge_fit(X, y, 1e-3)
    n = len(y)
    A = X.T @ X / n + 1e-3 * np.eye(10)
    b = X.T @ y / n
    res = float(np.max(np.abs(A @ np.asarray(fit.coeffs) - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    ok = res <= 1e-10 * scale
    return ok, f"normal-equation residual {res:.3e} <= 1e-10 * {scale:.2f}"


def _regress_alpha_zero_oracle(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(1010)
    X = rng.normal(0.0, 1.0, (80, 6))
    y = X @ rng.normal(0.0, 1.0, 6) + rng.normal(0.0, 0.1, 80)
    oracle = X @ np.linalg.lstsq(X, y, rcond=None)[0]
    scale = float(np.max(np.abs(oracle)))
    worst = 0.0
    for fit in (regress.lasso_fit(X, y, 0.0), regress.ridge_fit(X, y, 0.0)):
        pred = regress.predict(fit, X)
        worst = np.maximum(worst, float(np.max(np.abs(pred - oracle))) / scale)
    ok = worst <= 1e-8
    return ok, f"alpha=0 fits vs lstsq oracle: max rel prediction error {worst:.3e}"


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def _payoff_paths(rng: np.random.Generator, count: int):
    out = []
    for _ in range(count):
        n = int(rng.integers(5, 40))
        t = np.linspace(0.0, 1.0, n + 1)
        vals = np.cumsum(rng.normal(0.0, 0.1, (n + 1, 2)), axis=0)
        vals[0] = 0.0
        out.append(SamplePath(t, vals, Alphabet(2)))
    return out


def _one_path_stats(path: SamplePath) -> dict[str, float]:
    """Realized statistics of one path's base columns."""
    sums = signature.bracket_columns(path.values[None])[:, -1]
    stats = payoffs.realized_stats_batch(sums)
    return {key: arr[0] for key, arr in stats.items()}


def _payoffs_call_swap(fault: str | None) -> CheckResult:
    """Each call equals the positive part of statistic - strike, the swap on
    the call's own settlement statistic.  CovCall/CorrCall pair with the swap
    kinds directly; RVcall settles on volatility while RVswap settles on
    variance, so its swap side is built from the realized volatility."""
    rng = np.random.default_rng(111)
    pairs = (("CovSwap", "CovCall", (1, 2)), ("CorrSwap", "CorrCall", (1, 2)))
    for path in _payoff_paths(rng, 40):
        stats = _one_path_stats(path)
        for strike in (-0.5, 0.0, 0.02, 0.5):
            for swap_kind, call_kind, assets in pairs:
                stat = stats[payoffs.statistic_key(swap_kind, assets)]
                swap = payoffs.payoff_values(PayoffSpec(swap_kind, assets, strike), stat)
                call = payoffs.payoff_values(PayoffSpec(call_kind, assets, strike), stat)
                if call != max(swap, 0.0):
                    return False, (f"{call_kind} != max({swap_kind}, 0) at "
                                   f"strike {strike}")
            for i in (1, 2):
                rv = stats[f"RV_{i}"]
                call = payoffs.payoff_values(PayoffSpec("RVcall", (i,), strike), rv)
                if call != max(rv - strike, 0.0):
                    return False, f"RVcall_{i} != (RV - strike)^+ at strike {strike}"
    return True, "40 paths x 3 statistic pairs x 4 strikes, exact"


def _payoffs_corr_bound(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(222)
    worst = 0.0
    for path in _payoff_paths(rng, 100):
        worst = np.maximum(worst, abs(_one_path_stats(path)["Corr_12"]))
    ok = worst <= 1.0 + 1e-12
    return ok, f"100 paths: max |Corr| = {worst:.12f} (Cauchy-Schwarz bound 1)"


def _payoffs_rvar_qv(fault: str | None) -> CheckResult:
    rng = np.random.default_rng(333)
    for path in _payoff_paths(rng, 50):
        qv_end = signature.quadratic_variation(path, 0.0)[-1]
        stats = _one_path_stats(path)
        for i in (1, 2):
            if stats[f"RVar_{i}"] != qv_end[i - 1, i - 1]:
                return False, f"RVar_{i} != left-point QV end value"
    return True, "50 paths: RVar equals the left-point Follmer QV end value exactly"


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _cli_determinism(fault: str | None) -> CheckResult:
    import pathlib
    import tempfile

    from .experiments import default_config, run_calibration
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [f"{tmp}/a", f"{tmp}/b"]
        for d in dirs:
            cfg = default_config("heston-calib", master_seed=5, grid_n=120,
                                 n_test=3, out_dir=d)
            run_calibration(cfg)
        names = sorted(p.name for p in pathlib.Path(dirs[0]).iterdir())
        for name in names:
            a = pathlib.Path(dirs[0], name).read_bytes()
            b = pathlib.Path(dirs[1], name).read_bytes()
            if a != b:
                return False, f"{name} differs between identical reruns"
    return True, f"reduced calibration rerun: {len(names)} files byte-identical"


def _cli_output_stamps(fault: str | None) -> CheckResult:
    import json
    import pathlib
    import tempfile

    from .experiments import config_hash, default_config, run_pricing
    with tempfile.TemporaryDirectory() as tmp:
        cfg = default_config("cantor2-pricing", master_seed=9, grid_n=60,
                             n_train=80, n_test=40, n_mc=80, out_dir=tmp)
        run_pricing(cfg)
        expected = f"config_hash={config_hash(cfg)} master_seed=9"
        for p in pathlib.Path(tmp).iterdir():
            if p.suffix == ".csv":
                first = p.read_text().splitlines()[0]
                if first != f"# {expected}":
                    return False, f"{p.name} missing stamp header: {first!r}"
            else:
                data = json.loads(p.read_text())
                if (data.get("config_hash") != config_hash(cfg)
                        or data.get("master_seed") != 9):
                    return False, f"{p.name} missing embedded stamp keys"
    return True, "every CSV carries the stamp comment, every JSON the stamp keys"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODULES: dict[str, tuple[tuple[str, Callable[[str | None], CheckResult]], ...]] = {
    "tensor": (
        ("concat-associative", _tensor_concat_associative),
        ("shuffle-commutative-counting", _tensor_shuffle_counting),
        ("quasi-shuffle-reduction", _tensor_quasi_shuffle),
        ("group-inverse-roundtrip", _tensor_group_inverse),
        ("conversion-time-only", _tensor_conversion_time_only),
    ),
    "signature": (
        ("chen-exactness", _signature_chen_exactness),
        ("oracle-equivalence", _signature_oracle_equivalence),
        ("degree2-identities", _signature_degree2_identities),
        ("backward-symmetry", _signature_gamma1_symmetry),
        ("refinement-order", _signature_refinement_order),
    ),
    "models": (
        ("determinism", _models_determinism),
        ("heston-positivity", _models_heston_positivity),
        ("cantor-qv-consistency", _models_cantor_qv),
    ),
    "regress": (
        ("lasso-stationarity", _regress_lasso_stationarity),
        ("lasso-objective-monotone", _regress_lasso_monotone),
        ("ridge-residual", _regress_ridge_residual),
        ("alpha-zero-oracle", _regress_alpha_zero_oracle),
    ),
    "payoffs": (
        ("call-swap-consistency", _payoffs_call_swap),
        ("corr-bound", _payoffs_corr_bound),
        ("rvar-qv-consistency", _payoffs_rvar_qv),
    ),
    "cli": (
        ("output-determinism", _cli_determinism),
        ("output-stamps", _cli_output_stamps),
    ),
}


def run_all(module_filter: str | None = None,
            inject_fault: str | None = None) -> dict:
    """Run the invariant suites; failures are reported, never raised."""
    if module_filter is not None and module_filter not in MODULES:
        raise ValueError(f"unknown module {module_filter!r}; "
                         f"choose from {sorted(MODULES)}")
    report: dict = {"passed": True, "modules": {}}
    for module, suite in MODULES.items():
        if module_filter is not None and module != module_filter:
            continue
        entry = {"passed": True, "checks": {}}
        for name, fn in suite:
            start = time.perf_counter()
            try:
                ok, detail = fn(inject_fault)
            except Exception as exc:  # noqa: BLE001 - failures are content
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            entry["checks"][name] = {
                "passed": bool(ok),
                "detail": detail,
                "seconds": round(time.perf_counter() - start, 3),
            }
            entry["passed"] &= bool(ok)
        report["modules"][module] = entry
        report["passed"] &= entry["passed"]
    return report
