"""End-to-end acceptance suite.

One test per numbered criterion of the package contract.  Each test prints
a single summary line ``[criterion N] PASS|FAIL (elapsed): detail`` and then
asserts both the substantive bound and, where one applies, the time budget.
Tolerances and scales are pinned here and must not be loosened to make a
failing criterion pass.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

from gammasig import (
    Alphabet,
    Heston2Params,
    HestonParams,
    SamplePath,
    TensorPoly,
    augment_path,
    concat,
    cumsum0,
    default_config,
    enumerate_words,
    gamma_signature,
    gamma_signature_chen,
    group_inverse,
    ito_strat_functional,
    lasso_fit,
    pair,
    path_rng,
    quadratic_variation,
    quasi_shuffle,
    ridge_fit,
    run_calibration,
    run_pricing,
    shuffle,
    simulate_cantor_sde_batch,
    simulate_heston2_batch,
)
from gammasig.models import SimGrid, CantorParams, cantor_function
from conftest import make_random_path


def _report(num, ok: bool, elapsed: float, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {mark} ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: exact algebraic suites
# ---------------------------------------------------------------------------


def _pairs_by_degree(alphabet: Alphabet, max_total: int):
    words = enumerate_words(alphabet, max_total)
    by_len: dict[int, list] = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    for total in range(max_total + 1):
        for la in range(total + 1):
            for u in by_len.get(la, []):
                for w in by_len.get(total - la, []):
                    yield u, w


def _prepend(letter: int, terms: dict) -> dict:
    return {(letter,) + w: c for w, c in terms.items()}


def _merge(*term_dicts) -> dict:
    out: dict = {}
    for terms in term_dicts:
        for w, c in terms.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def _scale_terms(factor, terms: dict) -> dict:
    return {w: factor * c for w, c in terms.items()}


def test_criterion_1_exact_algebra_suites():
    start = time.perf_counter()
    alphabets = (
        Alphabet(4),
        Alphabet(3, has_time=True),
        Alphabet(1, has_time=True, has_brackets=True),
    )
    n_pairs = 0
    for alphabet in alphabets:
        shuf: dict = {}
        quasi: dict = {}
        for u, w in _pairs_by_degree(alphabet, 5):
            got_s = dict(shuffle(u, w, alphabet).items())
            got_q = dict(quasi_shuffle(u, w, alphabet).items())
            if not u or not w:
                single = {u + w: 1}
                assert got_s == single, (u, w)
                assert got_q == single, (u, w)
            else:
                # front recursions, assembled from cached lower-degree results
                want_s = _merge(_prepend(u[0], shuf[(u[1:], w)]),
                                _prepend(w[0], shuf[(u, w[1:])]))
                assert got_s == want_s, (u, w)
                parts = [_prepend(u[0], quasi[(u[1:], w)]),
                         _prepend(w[0], quasi[(u, w[1:])])]
                eps = alphabet.bracket_letter(u[0], w[0])
                if eps is not None:
                    parts.append(_prepend(eps, quasi[(u[1:], w[1:])]))
                assert got_q == _merge(*parts), (u, w)
            shuf[(u, w)] = got_s
            quasi[(u, w)] = got_q
            n_pairs += 1

        # concat associativity on exact integer coefficients
        rng = np.random.default_rng(101)
        words2 = enumerate_words(alphabet, 2)
        for _ in range(10):
            polys = []
            for _ in range(3):
                terms = {w: int(rng.integers(-4, 5))
                         for w in words2 if rng.random() < 0.5}
                polys.append(TensorPoly(alphabet, 4, terms))
            a, b, c = polys
            assert dict(concat(concat(a, b), c).items()) == \
                dict(concat(a, concat(b, c)).items())

        # group-inverse round trips, exact rational arithmetic
        unit = dict(TensorPoly.unit(alphabet, 3).items())
        words3 = enumerate_words(alphabet, 3)
        for _ in range(8):
            terms = {w: Fraction(int(rng.integers(-3, 4)))
                     for w in words3 if w and rng.random() < 0.4}
            terms[()] = Fraction(1)
            g = TensorPoly(alphabet, 3, terms)
            inv = group_inverse(g)
            assert dict(concat(inv, g).items()) == unit
            assert dict(concat(g, inv).items()) == unit

        # conversion functional: base cases and last-letter recursion
        ell: dict = {(): {(): 1}}
        for letter in alphabet.letters:
            ell[(letter,)] = {(letter,): 1}
            assert dict(ito_strat_functional((letter,), alphabet).items()) == \
                ell[(letter,)]
        for I in enumerate_words(alphabet, 5):
            if len(I) < 2:
                continue
            got = dict(ito_strat_functional(I, alphabet).items())
            want = {w + (I[-1],): c for w, c in ell[I[:-1]].items()}
            eps = alphabet.bracket_letter(I[-2], I[-1])
            if eps is not None:
                tail = _scale_terms(Fraction(-1, 2),
                                    {w + (eps,): c for w, c in ell[I[:-2]].items()})
                want = _merge(want, tail)
            assert got == want, I
            ell[I] = got

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(1, ok, elapsed,
            f"shuffle+quasi-shuffle front recursions exact on {n_pairs} word "
            f"pairs over 3 alphabets; concat associativity, inverse round "
            f"trips, conversion recursion all exact (budget 10s)")
    assert ok, f"exact algebra suite took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# Criterion 2: signature oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_two_constructions_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(20202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        p = make_random_path(rng, n, d)
        a = gamma_signature(p, gamma, 4)
        b = gamma_signature_chen(p, gamma, 4)
        for la, lb in zip(a.levels, b.levels):
            scale = max(1.0, float(np.abs(la).max()))
            worst = np.maximum(worst, float(np.abs(la - lb).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(2, ok, elapsed,
            f"200 paths (n<=50, d<=3, N=4, gamma in {{0,1/4,1/2,1}}): "
            f"level recursion vs per-step products, max rel err {worst:.3e} "
            f"(<= 1e-10, budget 30s)")
    assert worst <= 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: exact grid identities
# ---------------------------------------------------------------------------


def test_criterion_3_exact_grid_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(30303)
    worst_chen = worst_lvl2 = worst_shuf = worst_qshuf = 0.0
    words3 = None
    for _ in range(100):
        p = make_random_path(rng, 100, 2)
        if words3 is None:
            words3 = enumerate_words(p.alphabet, 3)

        # (a) Chen increment exactness at interior splits
        for gamma in (0.0, 0.5, 1.0):
            traj = gamma_signature(p, gamma, 3)
            total = traj.end
            for s in (0, 33, 66, 100):
                right = gamma_signature(p.sub_path(s, 100), gamma, 3).end
                prod = concat(traj.sig_at(s), right)
                for w in words3:
                    err = abs(prod.coeff(w) - total.coeff(w))
                    worst_chen = np.maximum(
                        worst_chen, err / max(1.0, abs(total.coeff(w))))

        # (b) level-2 midpoint minus left-point equals half the bracket
        qv = quadratic_variation(p, 0.0).reshape(101, 4)
        strat = gamma_signature(p, 0.5, 2)
        ito = gamma_signature(p, 0.0, 2)
        diff = strat.levels[1] - ito.levels[1] - 0.5 * qv
        worst_lvl2 = np.maximum(
            worst_lvl2, float(np.abs(diff).max()) / max(1.0, float(np.abs(qv).max())))

        # (c) degree-2 product identities on the grid
        s_end = strat.end
        for i in (1, 2):
            for j in (1, 2):
                prod = s_end.coeff((i,)) * s_end.coeff((j,))
                lhs = float(pair(shuffle((i,), (j,), p.alphabet), s_end))
                worst_shuf = np.maximum(worst_shuf,
                                        abs(lhs - prod) / max(1.0, abs(prod)))
        aug = augment_path(p, 0.0, include_time=False, include_brackets=True)
        i_end = gamma_signature(aug, 0.0, 2).end
        for i in (1, 2):
            for j in (1, 2):
                prod = i_end.coeff((i,)) * i_end.coeff((j,))
                lhs = float(pair(quasi_shuffle((i,), (j,), aug.alphabet), i_end))
                worst_qshuf = np.maximum(worst_qshuf,
                                         abs(lhs - prod) / max(1.0, abs(prod)))
    elapsed = time.perf_counter() - start
    ok = bool(np.max([worst_chen, worst_lvl2, worst_shuf, worst_qshuf]) <= 1e-12)
    _report(3, ok, elapsed,
            f"100 paths (n=100, d=2): Chen splits {worst_chen:.3e}, "
            f"level-2 scheme difference vs half-bracket {worst_lvl2:.3e}, "
            f"degree-2 shuffle {worst_shuf:.3e} / quasi-shuffle "
            f"{worst_qshuf:.3e} (all <= 1e-12 relative)")
    assert worst_chen <= 1e-12
    assert worst_lvl2 <= 1e-12
    assert worst_shuf <= 1e-12
    assert worst_qshuf <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 4: refinement convergence orders
# ---------------------------------------------------------------------------

_REFINE_NS = (250, 500, 1000, 2000)


def _smooth_path(n: int) -> SamplePath:
    t = np.linspace(0.0, 1.0, n + 1)
    values = np.column_stack([np.sin(2 * np.pi * t) + 0.3 * t * t,
                              0.5 * np.cos(3 * np.pi * t) + t])
    return SamplePath(t, values, Alphabet(2))


def _fit_order(ns, errs) -> float:
    x = np.log(1.0 / np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _qshuffle_deg3_residual(n: int) -> float:
    aug = augment_path(_smooth_path(n), 0.0,
                       include_time=True, include_brackets=True)
    end = gamma_signature(aug, 0.0, 3).end
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
    aug = augment_path(_smooth_path(n), 0.0,
                       include_time=True, include_brackets=True)
    s_ito = gamma_signature(aug, 0.0, 3).end
    s_strat = gamma_signature(aug, 0.5, 3).end
    worst = 0.0
    for I in enumerate_words(aug.alphabet, 3):
        lhs = s_ito.coeff(I)
        rhs = sum(float(c) * s_strat.coeff(w)
                  for w, c in ito_strat_functional(I, aug.alphabet).items())
        worst = np.maximum(worst, abs(lhs - rhs))
    return worst


def test_criterion_4_refinement_orders():
    start = time.perf_counter()
    qs_errs = [_qshuffle_deg3_residual(n) for n in _REFINE_NS]
    conv_errs = [_conversion_residual(n) for n in _REFINE_NS]
    qs_order = _fit_order(_REFINE_NS, qs_errs)
    conv_order = _fit_order(_REFINE_NS, conv_errs)
    elapsed = time.perf_counter() - start
    ok = qs_order >= 0.9 and conv_order >= 0.9 and elapsed < 60.0
    _report(4, ok, elapsed,
            f"orders in 1/n over n={_REFINE_NS}: degree-3 quasi-shuffle "
            f"{qs_order:.2f}, conversion functional {conv_order:.2f} "
            f"(both >= 0.9, budget 60s)")
    assert qs_order >= 0.9, (qs_order, qs_errs)
    assert conv_order >= 0.9, (conv_order, conv_errs)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 5: single-asset stochastic-volatility calibration
# ---------------------------------------------------------------------------


def test_criterion_5_heston_calibration_accuracy():
    start = time.perf_counter()
    full = run_calibration(default_config("heston-calib"))
    elapsed_full = time.perf_counter() - start
    start_red = time.perf_counter()
    reduced = run_calibration(
        default_config("heston-calib", grid_n=500, n_test=100))
    elapsed_red = time.perf_counter() - start_red

    def bounds_ok(report):
        return all(report["schemes"][s]["in_sample_mse"] <= 1e-5
                   and report["schemes"][s]["out_sample_mse"] <= 1e-3
                   for s in ("strat", "ito"))

    ok = (bounds_ok(full) and bounds_ok(reduced)
          and elapsed_full < 600.0 and elapsed_red < 60.0)
    detail = ", ".join(
        f"{tag} {s} in {rep['schemes'][s]['in_sample_mse']:.1e} / "
        f"out {rep['schemes'][s]['out_sample_mse']:.1e}"
        for tag, rep in (("full", full), ("reduced", reduced))
        for s in ("strat", "ito"))
    _report(5, ok, elapsed_full + elapsed_red,
            detail + f" (in <= 1e-5, out <= 1e-3; budgets 600s/60s, "
                     f"took {elapsed_full:.1f}s/{elapsed_red:.1f}s)")
    assert bounds_ok(full), full["schemes"]
    assert bounds_ok(reduced), reduced["schemes"]
    assert elapsed_full < 600.0
    assert elapsed_red < 60.0


# ---------------------------------------------------------------------------
# Criterion 6: singular-clock calibration, left-point vs midpoint
# ---------------------------------------------------------------------------


def test_criterion_6_cantor_calibration_scheme_gap():
    start = time.perf_counter()
    ratios = []
    for seed in range(5):
        report = run_calibration(default_config("cantor-calib",
                                                master_seed=seed))
        ratios.append(report["schemes"]["ito"]["out_sample_mse"]
                      / report["schemes"]["strat"]["out_sample_mse"])
    med = statistics.median(ratios)
    elapsed = time.perf_counter() - start
    ok = med <= 0.2 and elapsed < 300.0
    _report(6, ok, elapsed,
            f"out-of-sample MSE ratio left-point/midpoint per seed "
            f"{[f'{r:.3f}' for r in ratios]}, median {med:.3f} "
            f"(<= 0.2, budget 300s)")
    assert med <= 0.2, ratios
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 7: two-asset payoff pricing
# ---------------------------------------------------------------------------


def test_criterion_7_pricing_mse_and_ci_coverage():
    start = time.perf_counter()
    sizes = dict(n_train=3000, n_test=1000, n_mc=5000)
    seeds = (0, 1, 2)
    reports = {
        exp: [run_pricing(default_config(exp, master_seed=s, **sizes))
              for s in seeds]
        for exp in ("cantor2-pricing", "heston2-pricing")
    }
    # (a) per-payoff MSE comparison in the singular-clock config
    mse_wins = []
    for k in range(8):
        med_ito = statistics.median(
            r["payoffs"][k]["ito"]["out_sample_mse"]
            for r in reports["cantor2-pricing"])
        med_strat = statistics.median(
            r["payoffs"][k]["strat"]["out_sample_mse"]
            for r in reports["cantor2-pricing"])
        mse_wins.append(med_ito <= med_strat)
    # (b) CI coverage of the left-point regressed price, both configs
    coverage = {}
    for exp, reps in reports.items():
        counts = []
        for rep in reps:
            counts.append(sum(
                1 for e in rep["payoffs"]
                if e["ci_lo"] <= e["ito"]["price"] <= e["ci_hi"]))
        coverage[exp] = statistics.median(counts)
    elapsed = time.perf_counter() - start
    ok = all(mse_wins) and all(c >= 7 for c in coverage.values()) \
        and elapsed < 900.0
    _report(7, ok, elapsed,
            f"singular-clock MSE wins {sum(mse_wins)}/8; median in-CI counts "
            f"{ {k: v for k, v in coverage.items()} } (need >= 7 of 8; "
            f"budget 900s)")
    assert all(mse_wins), mse_wins
    for exp, med in coverage.items():
        assert med >= 7, (exp, med)
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# Criterion 8: regression suites
# ---------------------------------------------------------------------------


def test_criterion_8_regression_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(80808)

    # lasso stationarity at the sum-of-squares threshold alpha/2
    X = rng.normal(size=(60, 8))
    beta = np.zeros(8)
    beta[[0, 3, 5]] = [1.5, -2.0, 0.7]
    y = X @ beta + rng.normal(size=60) * 0.05
    alpha = 4.0
    fit = lasso_fit(X, y, alpha)
    r = y - X @ fit.coeffs
    kkt_ok = True
    for j in range(8):
        corr = float(X[:, j] @ r)
        slack = 1e-8 * float(X[:, j] @ X[:, j])
        if fit.coeffs[j] != 0.0:
            kkt_ok &= abs(corr - 0.5 * alpha * np.sign(fit.coeffs[j])) <= slack
        else:
            kkt_ok &= abs(corr) <= 0.5 * alpha + slack

    # orthonormal-design soft-threshold oracle
    Q, _ = np.linalg.qr(rng.normal(size=(40, 6)))
    y2 = rng.normal(size=40) * 2.0
    ortho_err = 0.0
    for a in (0.5, 2.0):
        got = lasso_fit(Q, y2, a).coeffs
        v = Q.T @ y2
        want = np.sign(v) * np.maximum(np.abs(v) - a / 2.0, 0.0)
        ortho_err = np.maximum(ortho_err, float(np.abs(got - want).max()))

    # ridge normal-equation residual
    X3 = rng.normal(size=(80, 10))
    y3 = rng.normal(size=80)
    rfit = ridge_fit(X3, y3, 0.3)
    A = X3.T @ X3 / 80 + 0.3 * np.eye(10)
    b = X3.T @ y3 / 80
    ridge_res = float(np.max(np.abs(A @ rfit.coeffs - b)))
    ridge_scale = float(np.max(np.abs(A)) * max(np.max(np.abs(rfit.coeffs)), 1.0)
                        + np.max(np.abs(b)))

    elapsed = time.perf_counter() - start
    ok = (kkt_ok and ortho_err <= 1e-9
          and ridge_res <= 1e-10 * ridge_scale and elapsed < 5.0)
    _report(8, ok, elapsed,
            f"lasso stationarity {'holds' if kkt_ok else 'VIOLATED'}; "
            f"orthonormal soft-threshold error {ortho_err:.3e} (<= 1e-9); "
            f"ridge residual {ridge_res:.3e} (<= 1e-10*scale; budget 5s)")
    assert kkt_ok
    assert ortho_err <= 1e-9
    assert ridge_res <= 1e-10 * ridge_scale
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 9: simulator statistics
# ---------------------------------------------------------------------------


def test_criterion_9_simulator_statistics():
    start = time.perf_counter()

    # (a) driver-correlation recovery at 1e5 draws: one Euler step of unit
    # assets gives S_i(1) = 1 + dB_i and V_i(1) = 1 + 1e-3 dW_i
    target = default_config("heston2-pricing").model.corr_matrix
    unit = HestonParams(s0=1.0, v0=1.0, mu=0.0, kappa=0.0, theta=0.0,
                        sigma=1e-3, rho=0.0)
    step = simulate_heston2_batch(Heston2Params(unit, unit, tuple(map(tuple, target))),
                                  SimGrid(1.0, 1, 909), range(100_000))
    draws = np.column_stack([step["S"][:, 1, 0] - 1.0, step["S"][:, 1, 1] - 1.0,
                             (step["V"][:, 1, 0] - 1.0) / 1e-3,
                             (step["V"][:, 1, 1] - 1.0) / 1e-3])
    assert step["V"].min() > 0.0  # V never truncated
    corr_err = float(np.max(np.abs(np.corrcoef(draws.T) - target)))

    # (b) terminal driver variance of the clocked Brownian motion
    grid = SimGrid(1.0, 81, 909)
    params = CantorParams(s0=(0.0,))
    ends = np.empty(100_000)
    for lo in range(0, 100_000, 10_000):
        batch = simulate_cantor_sde_batch(params, grid,
                                          range(lo, lo + 10_000))
        ends[lo:lo + 10_000] = cumsum0(batch["dW_C"][:, :, 0].T)[-1]
    var_wc = float(np.var(ends))

    # (c) empirical bracket of W_C approaches the clock under refinement
    ratios, fine_errs = [], []
    for seed in range(5):
        errs = {}
        for n in (500, 2000):
            g = SimGrid(1.0, n, seed)
            C = cantor_function(g.times)
            dC = np.clip(np.diff(C), 0.0, None)
            z = np.stack([path_rng(seed, i).standard_normal(n)
                          for i in range(3000)])
            qv = np.cumsum((np.sqrt(dC)[None, :] * z) ** 2, axis=1)
            qv = np.concatenate([np.zeros((3000, 1)), qv], axis=1)
            errs[n] = float(np.max(np.abs(qv.mean(axis=0) - C)))
        ratios.append(errs[2000] / errs[500])
        fine_errs.append(errs[2000])
    med_ratio = float(np.median(ratios))
    max_fine = float(np.max(fine_errs))

    elapsed = time.perf_counter() - start
    ok = (corr_err <= 0.02 and abs(var_wc - 1.0) <= 0.02
          and med_ratio <= 0.85 and max_fine <= 0.01 and elapsed < 120.0)
    _report(9, ok, elapsed,
            f"corr recovery err {corr_err:.4f} (<= 0.02); Var(W_C(1)) "
            f"{var_wc:.4f} (1 +- 0.02); bracket-vs-clock refinement: median "
            f"error ratio {med_ratio:.2f} (<= 0.85), fine-grid error "
            f"{max_fine:.4f} (<= 0.01; budget 120s)")
    assert corr_err <= 0.02
    assert abs(var_wc - 1.0) <= 0.02
    assert med_ratio <= 0.85, ratios
    assert max_fine <= 0.01, fine_errs
    assert elapsed < 120.0
