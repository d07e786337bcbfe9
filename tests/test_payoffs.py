"""Tests for realized-statistic payoffs on log-price paths.

Oracle: plain-Python loops over grid increments for every statistic, plus
cross-checks against the quadratic-variation module.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from gammasig import (
    PAYOFF_KINDS,
    PayoffSpec,
    payoff_values,
    quadratic_variation,
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


def batch_stats(values) -> dict[str, np.ndarray]:
    """Statistics of a (B, n+1, d) batch from its Follmer sums."""
    return realized_stats_batch(bracket_columns(np.asarray(values, dtype=float))[:, -1])


def path_stats(values) -> dict[str, float]:
    """Statistics of one (n+1, d) path as a batch of one."""
    return {key: arr[0] for key, arr in batch_stats(np.asarray(values)[None]).items()}


def payoff(spec: PayoffSpec, values) -> float:
    stat = path_stats(values)[statistic_key(spec.kind, spec.assets)]
    return float(payoff_values(spec, stat))


# ---------------------------------------------------------------------------
# realized_stats_batch
# ---------------------------------------------------------------------------


def test_realized_stats_hand_example():
    x = [0.0, 0.1, -0.1]
    stats = path_stats(np.column_stack([x, x]))
    assert stats["RVar_1"] == pytest.approx(0.05, rel=1e-15)
    assert stats["RV_1"] == pytest.approx(math.sqrt(0.05), rel=1e-15)
    assert stats["Cov_12"] == pytest.approx(0.05, rel=1e-15)
    assert stats["Corr_12"] == pytest.approx(1.0, abs=1e-15)


def test_realized_stats_identical_columns_corr_one(rng):
    col = np.cumsum(rng.normal(size=12))
    col[0] = 0.0
    assert path_stats(np.column_stack([col, col]))["Corr_12"] == pytest.approx(1.0, abs=1e-14)


def test_realized_stats_matches_plain_loop_oracle(rng):
    for _ in range(10):
        p = make_random_path(rng, 20, 2, scale=0.3)
        stats = path_stats(p.values)
        got = [stats[key] for key in ("RVar_1", "RV_1", "Cov_12", "Corr_12")]
        want = oracle_stats(p.values, 0, 1)
        assert np.allclose(got, want, rtol=1e-12)
        assert -1.0 - 1e-12 <= got[3] <= 1.0 + 1e-12


def test_rvar_bitwise_equals_quadratic_variation(rng):
    p = make_random_path(rng, 35, 2)
    qv_end = quadratic_variation(p, 0.0)[-1]
    stats = path_stats(p.values)
    rvar1, rvar2, cov = stats["RVar_1"], stats["RVar_2"], stats["Cov_12"]
    assert rvar1 == qv_end[0, 0]
    assert rvar2 == qv_end[1, 1]
    assert cov == qv_end[0, 1]
    # bracket columns in the order (1,1), (1,2), (2,2)
    assert list(bracket_columns(p.values[None])[0, -1]) == [rvar1, cov, rvar2]


def test_realized_stats_batch_matches_single(rng):
    B, n, d = 6, 15, 2
    values = np.cumsum(rng.normal(size=(B, n + 1, d)) * 0.2, axis=1)
    batch = batch_stats(values)
    assert set(batch) == {"RVar_1", "RV_1", "RVar_2", "RV_2",
                          "Cov_12", "Corr_12"}
    for b in range(B):
        single = path_stats(values[b])
        for key in batch:
            assert batch[key][b] == single[key]


def test_realized_stats_batch_nan_for_degenerate():
    values = np.zeros((2, 4, 2))
    values[0, :, 0] = [0.0, 1.0, 2.0, 3.0]
    values[0, :, 1] = [0.0, 1.0, 0.0, 1.0]
    # second path entirely constant
    batch = batch_stats(values)
    assert np.isfinite(batch["Corr_12"][0])
    assert np.isnan(batch["Corr_12"][1])
    assert batch["RVar_1"][1] == 0.0


def test_realized_stats_batch_needs_triangular_width():
    # the width d(d+1)/2 names d; any other shape is an error, not a guess
    assert set(realized_stats_batch(np.ones((4, 1)))) == {"RVar_1", "RV_1"}
    assert "Cov_23" in realized_stats_batch(np.ones((4, 6)))
    for shape in ((4, 2), (4, 4), (4, 5), (4, 7), (4, 0), (3,), (2, 4, 3)):
        with pytest.raises(ValueError, match="Follmer sums"):
            realized_stats_batch(np.ones(shape))


# ---------------------------------------------------------------------------
# Payoff evaluation
# ---------------------------------------------------------------------------


def test_evaluate_swap_and_call():
    x = [[0.0], [0.1], [-0.1]]  # RVar 0.05
    assert payoff(PayoffSpec("RVswap", (1,), 0.03), x) == pytest.approx(0.02)
    assert payoff(PayoffSpec("RVswap", (1,), 0.08), x) == pytest.approx(-0.03)
    rvar = path_stats(x)["RVar_1"]
    assert payoff(PayoffSpec("RVswap", (1,), rvar), x) == 0.0
    # RVcall settles on volatility, not variance
    rv = math.sqrt(rvar)
    assert payoff(PayoffSpec("RVcall", (1,), 0.1), x) == pytest.approx(rv - 0.1)
    assert payoff(PayoffSpec("RVcall", (1,), rv + 0.5), x) == 0.0
    assert payoff(PayoffSpec("RVcall", (1,), rv), x) == 0.0


def test_call_is_positive_part_of_swap(rng):
    for _ in range(5):
        p = make_random_path(rng, 12, 2, scale=0.2)
        for swap_kind, call_kind, assets in (
                ("CovSwap", "CovCall", (1, 2)),
                ("CorrSwap", "CorrCall", (1, 2))):
            strike = 0.1 * rng.normal()
            swap = payoff(PayoffSpec(swap_kind, assets, strike), p.values)
            call = payoff(PayoffSpec(call_kind, assets, strike), p.values)
            assert call == pytest.approx(max(swap, 0.0), abs=1e-15)


def test_evaluate_degenerate_paths():
    flat = np.column_stack([np.zeros(5), [0.0, 1.0, 0.0, 1.0, 0.0]])
    # correlation is undefined with a constant leg: its payoffs are NaN
    assert math.isnan(payoff(PayoffSpec("CorrSwap", (1, 2), 0.0), flat))
    assert math.isnan(payoff(PayoffSpec("CorrCall", (1, 2), 0.0), flat))
    # covariance is still defined when one leg is constant
    assert payoff(PayoffSpec("CovSwap", (1, 2), 0.1), flat) == pytest.approx(-0.1)
    assert payoff(PayoffSpec("RVswap", (1,), 0.0), flat) == 0.0


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
