"""Tests for realized-statistic payoffs on log-price paths.

Oracle: plain-Python loops over grid increments for every statistic, plus
cross-checks against the quadratic-variation module.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from gammasig import (
    Alphabet,
    PAYOFF_KINDS,
    PayoffSpec,
    SamplePath,
    augment_path,
    evaluate,
    quadratic_variation,
    realized_stats,
    realized_stats_batch,
    statistic_key,
)
from gammasig.signature import bracket_columns
from conftest import make_random_path


def oracle_stats(values: np.ndarray, i: int, j: int):
    """Plain float loops; values is (n+1, d) with 0-based columns."""
    dxi = [values[k + 1, i] - values[k, i] for k in range(len(values) - 1)]
    dxj = [values[k + 1, j] - values[k, j] for k in range(len(values) - 1)]
    rvar_i = sum(a * a for a in dxi)
    rvar_j = sum(a * a for a in dxj)
    cov = sum(a * b for a, b in zip(dxi, dxj))
    corr = cov / math.sqrt(rvar_i * rvar_j)
    return rvar_i, math.sqrt(rvar_i), cov, corr


def two_col_path(col1, col2) -> SamplePath:
    values = np.column_stack([col1, col2])
    times = np.arange(len(col1), dtype=float)
    return SamplePath(times, values, Alphabet(2))


# ---------------------------------------------------------------------------
# realized_stats
# ---------------------------------------------------------------------------


def test_realized_stats_hand_example():
    p = SamplePath([0.0, 1.0, 2.0], [0.0, 0.1, -0.1], Alphabet(1))
    rvar, rv, cov, corr = realized_stats(p, 1, 1)
    assert rvar == pytest.approx(0.05, rel=1e-15)
    assert rv == pytest.approx(math.sqrt(0.05), rel=1e-15)
    assert cov == pytest.approx(0.05, rel=1e-15)
    assert corr == pytest.approx(1.0, abs=1e-15)


def test_realized_stats_identical_columns_corr_one(rng):
    col = np.cumsum(rng.normal(size=12))
    col[0] = 0.0
    p = two_col_path(col, col)
    _, _, _, corr = realized_stats(p, 1, 2)
    assert corr == pytest.approx(1.0, abs=1e-14)


def test_realized_stats_matches_plain_loop_oracle(rng):
    for _ in range(10):
        p = make_random_path(rng, 20, 2, scale=0.3)
        got = realized_stats(p, 1, 2)
        want = oracle_stats(p.values, 0, 1)
        assert np.allclose(got, want, rtol=1e-12)
        assert -1.0 - 1e-12 <= got[3] <= 1.0 + 1e-12


def test_rvar_bitwise_equals_quadratic_variation(rng):
    p = make_random_path(rng, 35, 2)
    qv_end = quadratic_variation(p, 0.0)[-1]
    rvar1 = realized_stats(p, 1, 1)[0]
    rvar2 = realized_stats(p, 2, 2)[0]
    cov = realized_stats(p, 1, 2)[2]
    assert rvar1 == qv_end[0, 0]
    assert rvar2 == qv_end[1, 1]
    assert cov == qv_end[0, 1]
    batch = realized_stats_batch(p.values[None])
    assert batch["RVar_1"][0] == rvar1
    assert batch["RVar_2"][0] == rvar2
    assert batch["Cov_12"][0] == cov
    # bracket columns in the order (1,1), (1,2), (2,2)
    assert list(bracket_columns(p.values[None])[0, -1]) == [rvar1, cov, rvar2]


def test_realized_stats_degenerate_and_bad_column(rng):
    p = two_col_path(np.zeros(6), np.cumsum(rng.normal(size=6)))
    with pytest.raises(ValueError, match="undefined"):
        realized_stats(p, 1, 2)
    timed = augment_path(make_random_path(rng, 5, 1), 0.0,
                         include_time=True, include_brackets=False)
    with pytest.raises(ValueError, match="not a base column"):
        realized_stats(timed, 0, 0)


def test_realized_stats_batch_matches_single(rng):
    B, n, d = 6, 15, 2
    values = np.cumsum(rng.normal(size=(B, n + 1, d)) * 0.2, axis=1)
    batch = realized_stats_batch(values)
    assert set(batch) == {"RVar_1", "RV_1", "RVar_2", "RV_2",
                          "Cov_12", "Corr_12"}
    times = np.arange(n + 1, dtype=float)
    for b in range(B):
        p = SamplePath(times, values[b], Alphabet(2))
        rvar1, rv1, cov, corr = realized_stats(p, 1, 2)
        assert batch["RVar_1"][b] == rvar1
        assert batch["RV_1"][b] == rv1
        assert batch["Cov_12"][b] == cov
        assert batch["Corr_12"][b] == pytest.approx(corr, rel=1e-15)


def test_realized_stats_batch_nan_for_degenerate():
    values = np.zeros((2, 4, 2))
    values[0, :, 0] = [0.0, 1.0, 2.0, 3.0]
    values[0, :, 1] = [0.0, 1.0, 0.0, 1.0]
    # second path entirely constant
    batch = realized_stats_batch(values)
    assert np.isfinite(batch["Corr_12"][0])
    assert np.isnan(batch["Corr_12"][1])
    assert batch["RVar_1"][1] == 0.0


# ---------------------------------------------------------------------------
# Payoff evaluation
# ---------------------------------------------------------------------------


def test_evaluate_swap_and_call():
    p = SamplePath([0.0, 1.0, 2.0], [0.0, 0.1, -0.1], Alphabet(1))  # RVar 0.05
    assert evaluate(PayoffSpec("RVswap", (1,), 0.03), p) == pytest.approx(0.02)
    assert evaluate(PayoffSpec("RVswap", (1,), 0.08), p) == pytest.approx(-0.03)
    rvar = realized_stats(p, 1, 1)[0]
    assert evaluate(PayoffSpec("RVswap", (1,), rvar), p) == 0.0
    # RVcall settles on volatility, not variance
    rv = math.sqrt(rvar)
    assert evaluate(PayoffSpec("RVcall", (1,), 0.1), p) == pytest.approx(rv - 0.1)
    assert evaluate(PayoffSpec("RVcall", (1,), rv + 0.5), p) == 0.0
    assert evaluate(PayoffSpec("RVcall", (1,), rv), p) == 0.0


def test_call_is_positive_part_of_swap(rng):
    for _ in range(5):
        p = make_random_path(rng, 12, 2, scale=0.2)
        for swap_kind, call_kind, assets in (
                ("CovSwap", "CovCall", (1, 2)),
                ("CorrSwap", "CorrCall", (1, 2))):
            strike = 0.1 * rng.normal()
            swap = evaluate(PayoffSpec(swap_kind, assets, strike), p)
            call = evaluate(PayoffSpec(call_kind, assets, strike), p)
            assert call == pytest.approx(max(swap, 0.0), abs=1e-15)


def test_evaluate_degenerate_paths():
    flat = two_col_path(np.zeros(5), [0.0, 1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="undefined"):
        evaluate(PayoffSpec("CorrSwap", (1, 2), 0.0), flat)
    # covariance is still defined when one leg is constant
    assert evaluate(PayoffSpec("CovSwap", (1, 2), 0.1), flat) == pytest.approx(-0.1)
    assert evaluate(PayoffSpec("RVswap", (1,), 0.0), flat) == 0.0


# ---------------------------------------------------------------------------
# PayoffSpec / statistic_key
# ---------------------------------------------------------------------------


def test_payoff_spec_validation():
    with pytest.raises(ValueError, match="unknown payoff kind"):
        PayoffSpec("VarSwap", (1,), 0.0)
    with pytest.raises(ValueError):
        PayoffSpec("RVswap", (1, 2), 0.0)
    with pytest.raises(ValueError):
        PayoffSpec("CovSwap", (1,), 0.0)
    with pytest.raises(ValueError):
        PayoffSpec("RVswap", (0,), 0.0)
    with pytest.raises(ValueError):
        PayoffSpec("RVswap", (1,), float("nan"))


def test_payoff_spec_labels_and_calls():
    assert PayoffSpec("RVswap", (1,), 0.0).label == "RVswap_1"
    assert PayoffSpec("CovCall", (1, 2), 0.0).label == "CovCall_12"
    assert [PayoffSpec(k, (1,) if k.startswith("RV") else (1, 2), 0.0).is_call
            for k in PAYOFF_KINDS] == [False, True, False, True, False, True]
    assert statistic_key("RVcall", (2,)) == "RV_2"
    assert statistic_key("RVswap", (2,)) == "RVar_2"
    assert statistic_key("CovSwap", (1, 2)) == "Cov_12"
    assert statistic_key("CorrCall", (1, 2)) == "Corr_12"
