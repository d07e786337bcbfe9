"""Tests for the stochastic model simulators and their helpers.

Oracles: plain-Python Euler loops re-deriving each simulator from its own
drawn normals, exact ternary identities for the Cantor function, and
sample statistics of the correlated two-asset Heston drivers.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gammasig import (
    CantorParams,
    Heston2Params,
    HestonParams,
    SimGrid,
    cantor_function,
    heston_drivers,
    path_rng,
    simulate_cantor_sde_batch,
    simulate_heston_batch,
    simulate_heston2_batch,
    simulation_values,
)
from gammasig.models import _stack_draws
from gammasig.signature import cumsum0


# ---------------------------------------------------------------------------
# SimGrid / parameter validation
# ---------------------------------------------------------------------------


def test_sim_grid_basics():
    g = SimGrid(T=2.0, n=4, master_seed=7)
    assert g.dt == 0.5
    assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        SimGrid(T=0.0, n=4, master_seed=7)
    with pytest.raises(ValueError):
        SimGrid(T=1.0, n=0, master_seed=7)
    with pytest.raises(ValueError):
        SimGrid(T=1.0, n=4, master_seed=-1)
    with pytest.raises(ValueError):
        SimGrid(T=1.0, n=4, master_seed=2 ** 64)


def test_heston_params_validation():
    p = HestonParams(s0=1.0, v0=0.04, mu=0.05, kappa=1.5, theta=0.04,
                     sigma=0.3, rho=-0.7)
    with pytest.raises(ValueError):
        HestonParams(s0=0.0, v0=0.04, mu=0.0, kappa=1.0, theta=0.04,
                     sigma=0.3, rho=0.0)
    with pytest.raises(ValueError):
        HestonParams(s0=1.0, v0=-0.1, mu=0.0, kappa=1.0, theta=0.04,
                     sigma=0.3, rho=0.0)
    with pytest.raises(ValueError):
        HestonParams(s0=1.0, v0=0.04, mu=0.0, kappa=1.0, theta=0.04,
                     sigma=0.3, rho=1.5)


def test_heston2_params_validation():
    a = HestonParams(s0=1.0, v0=0.04, mu=0.0, kappa=1.0, theta=0.04,
                     sigma=0.2, rho=0.0)
    p = Heston2Params.build(a, a, corr_b1b2=0.3, corr_w1w2=0.2,
                            corr_b1w1=-0.5, corr_b2w2=-0.4)
    assert p.corr_matrix[0, 1] == 0.3
    assert p.corr_matrix[0, 3] == 0.0  # unspecified cross term
    with pytest.raises(ValueError):
        Heston2Params(a, a, ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="eigenvalue"):
        Heston2Params.build(a, a, corr_b1b2=-0.9, corr_w1w2=-0.9,
                            corr_b1w1=-0.9, corr_b2w2=-0.9,
                            corr_b1w2=-0.9, corr_b2w1=-0.9)


def test_cantor_params_validation():
    p = CantorParams(s0=2.0)
    assert p.s0 == (2.0,)
    assert p.vol(np.array([[0.0]]))[0, 0] == 1.0
    lin = CantorParams(s0=(1.0, 2.0), vol_kind="linear", nu=(0.5, 0.25))
    # the state has one row per asset
    assert lin.vol(np.array([[2.0, 4.0], [2.0, 4.0]])).tolist() == [[1.0, 2.0], [0.5, 1.0]]
    with pytest.raises(ValueError):
        CantorParams(s0=1.0, vol_kind="cubic")
    with pytest.raises(ValueError):
        CantorParams(s0=1.0, vol_kind="linear")
    with pytest.raises(ValueError):
        CantorParams(s0=(1.0, 2.0), vol_kind="linear", nu=(0.5,))
    with pytest.raises(ValueError):
        CantorParams(s0=1.0, cantor_depth=10)
    with pytest.raises(ValueError):
        CantorParams(s0=1.0, rho=-1.2)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def test_path_rng_deterministic_and_distinct():
    a = path_rng(42, 3).standard_normal(8)
    b = path_rng(42, 3).standard_normal(8)
    assert np.array_equal(a, b)
    c = path_rng(42, 4).standard_normal(8)
    d = path_rng(43, 3).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stack_draws_equal_per_path_streams():
    # one re-keyed Philox per batch draws what a fresh path_rng draws, in
    # any index order, with repeats and for a 64-bit master seed; the draws
    # are stored paths last, (n, width, B)
    for seed, indices in ((7, [0, 1, 2]), (7, [40, 3, 3, 17, 0]),
                          (2 ** 64 - 1, [9, 2 ** 40])):
        grid = SimGrid(1.0, 6, seed)
        draws = _stack_draws(grid, indices, 3)
        assert draws.shape == (6, 3, len(indices)) and draws.flags.c_contiguous
        for b, idx in enumerate(indices):
            expected = path_rng(seed, idx).standard_normal((6, 3))
            assert np.array_equal(draws[:, :, b].view(np.uint64), expected.view(np.uint64))
    assert _stack_draws(SimGrid(1.0, 4, 1), [], 2).shape == (4, 2, 0)


# ---------------------------------------------------------------------------
# Cantor function
# ---------------------------------------------------------------------------


def test_cantor_function_exact_points():
    assert cantor_function(0.0) == 0.0
    assert cantor_function(1.0) == 1.0
    assert cantor_function(0.5) == 0.5      # first ternary digit 1 -> terminal
    assert cantor_function(1 / 3) == pytest.approx(0.5, abs=1e-11)
    assert cantor_function(2 / 3) == pytest.approx(0.5, abs=1e-11)
    assert cantor_function(1 / 9) == pytest.approx(0.25, abs=1e-11)
    assert cantor_function(2 / 9) == pytest.approx(0.25, abs=1e-11)
    assert cantor_function(0.25) == pytest.approx(1 / 3, abs=1e-11)


def test_cantor_function_plateau_and_monotone():
    xs = np.linspace(0.34, 0.66, 50)
    assert np.all(cantor_function(xs) == 0.5)
    grid = np.linspace(0.0, 1.0, 2001)
    vals = cantor_function(grid)
    assert np.all(np.diff(vals) >= 0.0)


def test_cantor_function_self_similarity():
    x = np.linspace(0.0, 1.0, 301)
    lhs = cantor_function(x / 3.0)
    rhs = cantor_function(x) / 2.0
    # float division can nudge an early ternary digit; jitter stays ~1e-11
    assert np.allclose(lhs, rhs, atol=1e-9, rtol=0)


def test_cantor_function_depth_beyond_the_last_digit_weight():
    # digit k weighs 2**-k, which underflows to 0.0 past k = 1074: a depth
    # of 10**9 reads 1074 digits, in well under a second, with the bits of
    # depth 1074 (reading all 10**9 would take hours)
    import time
    x = np.concatenate([np.linspace(0.0, 1.0, 2001),
                        [5e-324, 1e-320, 2.2e-308, 1e-300, 3.0 ** -600, 0.999999999]])
    start = time.perf_counter()
    deep = cantor_function(x, 10 ** 9)
    assert time.perf_counter() - start < 10.0
    assert np.array_equal(deep.view(np.uint64), cantor_function(x, 1074).view(np.uint64))
    grid = SimGrid(1.0, 30, 4)
    S = [simulate_cantor_sde_batch(CantorParams(s0=0.0, cantor_depth=depth), grid, [0])["S"]
         for depth in (10 ** 9, 1074)]
    assert np.array_equal(S[0].view(np.uint64), S[1].view(np.uint64))


def test_cantor_function_shapes_and_domain():
    assert isinstance(cantor_function(0.3), float)
    arr = cantor_function(np.full((2, 3), 0.5))
    assert arr.shape == (2, 3)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            cantor_function(bad)


# ---------------------------------------------------------------------------
# Heston simulator
# ---------------------------------------------------------------------------

HP = HestonParams(s0=1.0, v0=0.04, mu=0.05, kappa=1.5, theta=0.04,
                  sigma=0.3, rho=-0.7)


HESTON_NAMES = ("S", "V", "W_Q", "B_Q")


def heston_paths(params: HestonParams, grid: SimGrid, indices) -> dict[str, np.ndarray]:
    """The simulator's S and V with the drivers that heston_drivers
    recovers from them."""
    paths = simulate_heston_batch(params, grid, indices)
    return {**paths, **heston_drivers(paths["S"], paths["V"], params.sigma)}


def test_heston_columns_and_determinism():
    grid = SimGrid(T=1.0, n=16, master_seed=100)
    assert list(simulate_heston_batch(HP, grid, [2])) == ["S", "V"]
    p = heston_paths(HP, grid, [2])
    assert set(p) == {*HESTON_NAMES, "degenerate_steps"}
    for name in HESTON_NAMES:
        assert p[name].shape == (1, 17)
    assert p["degenerate_steps"].shape == (1,)
    q = heston_paths(HP, grid, [2])
    r = heston_paths(HP, grid, [3])
    for name in HESTON_NAMES:
        assert np.array_equal(p[name], q[name])
    assert not np.array_equal(p["S"], r["S"])


def test_heston_batch_matches_single():
    grid = SimGrid(T=1.0, n=10, master_seed=9)
    batch = simulate_heston_batch(HP, grid, [0, 5, 7])
    for b, idx in enumerate([0, 5, 7]):
        single = simulate_heston_batch(HP, grid, [idx])
        for name in single:
            assert np.array_equal(batch[name][b], single[name][0])


def test_heston_matches_manual_euler():
    grid = SimGrid(T=0.5, n=6, master_seed=31)
    p = {name: arr[0] for name, arr in heston_paths(HP, grid, [3]).items()}
    z = path_rng(31, 3).standard_normal((6, 2))
    dt = grid.dt
    rho = HP.rho
    dW = np.sqrt(dt) * z[:, 0]
    dB = np.sqrt(dt) * (rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1])
    S, V = [HP.s0], [HP.v0]
    for k in range(6):
        sq = np.sqrt(V[-1])
        S.append(S[-1] + HP.mu * S[-1] * dt + S[-1] * sq * dW[k])
        V.append(max(V[-1] + HP.kappa * (HP.theta - V[-1]) * dt
                     + HP.sigma * sq * dB[k], 0.0))
    assert np.allclose(p["S"], S, rtol=1e-13, atol=0)
    assert np.allclose(p["V"], V, rtol=1e-13, atol=1e-18)
    # V stays positive, so every step is recovered: dW_Q = dS / (S sqrt(V))
    # is the input driver plus the drift term, and likewise for dB_Q
    assert min(V) > 0.0 and p["degenerate_steps"] == 0
    sqV = np.sqrt(V[:-1])
    dWQ = dW + HP.mu * dt / sqV
    dBQ = dB + HP.kappa * (HP.theta - np.array(V[:-1])) * dt / (HP.sigma * sqV)
    assert np.allclose(p["W_Q"], np.concatenate([[0.0], np.cumsum(dWQ)]),
                       rtol=1e-13, atol=1e-16)
    assert np.allclose(p["B_Q"], np.concatenate([[0.0], np.cumsum(dBQ)]),
                       rtol=1e-13, atol=1e-16)


def test_heston_constant_variance_limit():
    flat = HestonParams(s0=2.0, v0=0.09, mu=0.0, kappa=0.0, theta=0.0,
                        sigma=0.0, rho=0.0)
    grid = SimGrid(T=1.0, n=20, master_seed=5)
    p = {name: arr[0] for name, arr in heston_paths(flat, grid, [0]).items()}
    assert np.all(p["V"] == 0.09)
    # with mu = 0 the price recursion is S_{k+1} = S_k (1 + 0.3 dW)
    S = p["S"]
    dW = np.sqrt(grid.dt) * path_rng(5, 0).standard_normal((20, 2))[:, 0]
    assert np.allclose(S[1:] / S[:-1], 1.0 + 0.3 * dW, rtol=1e-12)
    # recovered price driver coincides with the input driver
    assert np.allclose(p["W_Q"], np.concatenate([[0.0], np.cumsum(dW)]), atol=1e-12)
    # sigma = 0 leaves the variance driver unrecoverable: all steps degenerate
    assert p["degenerate_steps"] == 20
    assert np.all(p["B_Q"] == 0.0)


def test_heston_variance_stays_nonnegative():
    rough = HestonParams(s0=1.0, v0=0.0001, mu=0.0, kappa=0.1, theta=0.0001,
                         sigma=2.0, rho=0.0)
    grid = SimGrid(T=1.0, n=50, master_seed=77)
    p = heston_paths(rough, grid, range(5))
    assert np.all(p["V"] >= 0.0)
    assert np.all(p["degenerate_steps"] >= 0)


def test_heston_simulation_memory():
    # the draws, their increments and the prices and variances written over
    # them share one buffer, so the peak stays close to the returned arrays,
    # transpose views of a batch-last (n+1, 2, B) buffer
    grid = SimGrid(T=1.0, n=400, master_seed=0)
    tracemalloc.start()
    try:
        p = simulate_heston_batch(HP, grid, range(200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p[name].strides[0] == p[name].itemsize for name in p)
    assert peak <= 1.3 * sum(p[name].nbytes for name in p)


#: Heston models whose variance hits 0 (degenerate steps) with fully
#: correlated drivers, and whose vol of vol is 0 (every variance step
#: degenerate, B_Q = 0) with anti-correlated ones.
ROUGH = HestonParams(s0=1.0, v0=0.0001, mu=0.0, kappa=0.1, theta=0.0001, sigma=2.0, rho=1.0)
FLAT = HestonParams(s0=2.0, v0=0.09, mu=0.01, kappa=0.0, theta=0.0, sigma=0.0, rho=-1.0)


@pytest.mark.parametrize("params", [HP, ROUGH, FLAT], ids=["heston", "rough", "sigma0"])
def test_heston_drivers_of_chunks_equal_the_whole_batch(params):
    # the drivers recovered from slices of a batch's paths, written into
    # the last two columns of a (B, n+1, 3) transpose view of a batch-last
    # block, keep the bits of the whole batch's W_Q and B_Q and its
    # degenerate step counts; the first column is not touched
    grid = SimGrid(T=1.0, n=50, master_seed=77)
    indices = range(7)
    whole = heston_paths(params, grid, indices)
    if params is ROUGH:
        assert 0 < whole["degenerate_steps"].sum() < 7 * grid.n
    if params is FLAT:
        assert np.all(whole["degenerate_steps"] == grid.n) and not np.any(whole["B_Q"])
    sv = simulate_heston_batch(params, grid, indices, out=np.empty(2 * (grid.n + 1) * 7))
    for lo, hi in ((0, 3), (3, 4), (4, 7)):
        block = np.full((grid.n + 1, 3, hi - lo), np.nan).transpose(2, 0, 1)
        got = heston_drivers(sv["S"][lo:hi], sv["V"][lo:hi], params.sigma, out=block[:, :, 1:])
        for column, name in ((1, "W_Q"), (2, "B_Q")):
            expected = whole[name][lo:hi].view(np.uint64)
            assert np.shares_memory(got[name], block)
            assert np.array_equal(got[name].view(np.uint64), expected), (name, lo)
            assert np.array_equal(block[:, :, column].view(np.uint64), expected), (name, lo)
        assert np.array_equal(got["degenerate_steps"], whole["degenerate_steps"][lo:hi])
        assert np.all(np.isnan(block[:, :, 0]))
        # the allocating route, on slices of the simulator's own buffer
        alone = heston_drivers(whole["S"][lo:hi], whole["V"][lo:hi], params.sigma)
        for name in HESTON_NAMES[2:]:
            assert np.array_equal(alone[name].view(np.uint64), whole[name][lo:hi].view(np.uint64))


# ---------------------------------------------------------------------------
# Two-asset Heston
# ---------------------------------------------------------------------------


def heston2_params() -> Heston2Params:
    a1 = HestonParams(s0=1.0, v0=0.04, mu=0.02, kappa=1.0, theta=0.04,
                      sigma=0.2, rho=0.0)
    a2 = HestonParams(s0=2.0, v0=0.09, mu=0.01, kappa=2.0, theta=0.09,
                      sigma=0.3, rho=0.0)
    return Heston2Params.build(a1, a2, corr_b1b2=0.5, corr_w1w2=0.25,
                               corr_b1w1=-0.5, corr_b2w2=-0.4)


HESTON2_NAMES = ("S", "V")


def test_heston2_columns_and_determinism():
    grid = SimGrid(T=1.0, n=12, master_seed=200)
    p = simulate_heston2_batch(heston2_params(), grid, [1])
    assert set(p) == set(HESTON2_NAMES)
    again = simulate_heston2_batch(heston2_params(), grid, [1])
    batch = simulate_heston2_batch(heston2_params(), grid, [1, 4])
    q = simulate_heston2_batch(heston2_params(), grid, [4])
    for name in HESTON2_NAMES:
        assert p[name].shape == (1, 13, 2)
        assert batch[name].transpose(1, 2, 0).flags.c_contiguous
        assert np.array_equal(p[name], again[name])
        assert np.array_equal(batch[name][0], p[name][0])
        assert np.array_equal(batch[name][1], q[name][0])


def test_heston2_uncorrelated_matches_manual_euler():
    a1 = HestonParams(s0=1.0, v0=0.04, mu=0.02, kappa=1.0, theta=0.04,
                      sigma=0.2, rho=0.0)
    a2 = HestonParams(s0=2.0, v0=0.09, mu=0.0, kappa=0.5, theta=0.09,
                      sigma=0.1, rho=0.0)
    params = Heston2Params(a1, a2, tuple(map(tuple, np.eye(4))))
    grid = SimGrid(T=0.5, n=5, master_seed=88)
    p = simulate_heston2_batch(params, grid, [2])
    z = path_rng(88, 2).standard_normal((5, 4))
    dt = grid.dt
    for i, prm in enumerate((a1, a2)):
        dB = np.sqrt(dt) * z[:, i]        # price driver
        dWv = np.sqrt(dt) * z[:, 2 + i]   # variance driver
        S, V = [prm.s0], [prm.v0]
        for k in range(5):
            sq = np.sqrt(V[-1])
            S.append(S[-1] + prm.mu * S[-1] * dt + S[-1] * sq * dB[k])
            V.append(max(V[-1] + prm.kappa * (prm.theta - V[-1]) * dt
                         + prm.sigma * sq * dWv[k], 0.0))
        assert np.allclose(p["S"][0, :, i], S, rtol=1e-13)
        assert np.allclose(p["V"][0, :, i], V, rtol=1e-13)


def test_heston2_zero_vol_of_vol():
    a = HestonParams(s0=1.0, v0=0.04, mu=0.0, kappa=0.0, theta=0.0,
                     sigma=0.0, rho=0.0)
    params = Heston2Params(a, a, tuple(map(tuple, np.eye(4))))
    p = simulate_heston2_batch(params, SimGrid(T=1.0, n=8, master_seed=1), [0])
    assert np.all(p["V"][..., 0] == 0.04)
    assert np.all(p["V"][..., 1] == 0.04)


def heston2_drivers(corr4, count: int, seed: int) -> np.ndarray:
    """(count, 4) driver draws in the order (B1, B2, W1, W2), read off one
    Euler step of unit assets: S_i(1) = 1 + dB_i, V_i(1) = 1 + 1e-3 dW_i."""
    unit = HestonParams(s0=1.0, v0=1.0, mu=0.0, kappa=0.0, theta=0.0,
                        sigma=1e-3, rho=0.0)
    p = simulate_heston2_batch(Heston2Params(unit, unit, corr4),
                               SimGrid(1.0, 1, seed), range(count))
    return np.column_stack([p["S"][:, 1, 0] - 1.0, p["S"][:, 1, 1] - 1.0,
                            (p["V"][:, 1, 0] - 1.0) / 1e-3,
                            (p["V"][:, 1, 1] - 1.0) / 1e-3])


def test_heston2_identity_correlation_uses_raw_draws():
    # path b draws from its own stream; the identity factor leaves the draws as is
    x = heston2_drivers(np.eye(4), 10, 5)
    raw = np.stack([path_rng(5, b).standard_normal(4) for b in range(10)])
    assert x.shape == (10, 4)
    assert np.allclose(x, raw, rtol=0, atol=1e-12)


def test_heston2_driver_statistics():
    a = heston2_params().asset1
    target = Heston2Params.build(a, a, corr_b1b2=-0.5, corr_w1w2=0.3,
                                 corr_b1w1=-0.6, corr_b2w2=-0.4).corr_matrix
    x = heston2_drivers(target, 200_000, 11)
    assert np.max(np.abs(np.corrcoef(x.T) - target)) < 0.01
    assert np.all(np.abs(np.var(x, axis=0) - 1.0) < 0.02)


def test_heston2_singular_and_invalid_correlation():
    a = heston2_params().asset1
    # B1 = B2 and W1 = W2: PSD but singular, so the Cholesky factor fails
    # and the eigenvalue square root drives both assets identically
    params = Heston2Params.build(a, a, corr_b1b2=1.0, corr_w1w2=1.0,
                                 corr_b1w1=0.0, corr_b2w2=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(params.corr_matrix)
    p = simulate_heston2_batch(params, SimGrid(T=1.0, n=20, master_seed=1), range(5))
    assert np.allclose(p["S"][..., 0], p["S"][..., 1], rtol=1e-12, atol=0)
    assert np.allclose(p["V"][..., 0], p["V"][..., 1], rtol=1e-12, atol=0)
    assert not np.allclose(p["S"][:, 1:, 0], a.s0)
    bad = np.eye(4)
    bad[0, 1] = bad[1, 0] = 2.0
    with pytest.raises(ValueError, match="eigenvalue"):
        Heston2Params(a, a, tuple(map(tuple, bad)))
    bad = np.eye(4)
    bad[0, 1], bad[1, 0] = 0.5, 0.2
    with pytest.raises(ValueError, match="symmetric"):
        Heston2Params(a, a, tuple(map(tuple, bad)))
    with pytest.raises(ValueError, match="unit diagonal"):
        Heston2Params(a, a, tuple(map(tuple, 2.0 * np.eye(4))))


# ---------------------------------------------------------------------------
# Cantor-clock SDE
# ---------------------------------------------------------------------------


def cantor_paths(params: CantorParams, grid: SimGrid, indices) -> dict[str, np.ndarray]:
    """The simulator's S with W_C, the cumsum0 of its increments along
    time, and the clock C of the grid."""
    paths = simulate_cantor_sde_batch(params, grid, indices)
    return {"S": paths["S"],
            "W_C": cumsum0(paths["dW_C"].transpose(1, 0, 2)).transpose(1, 0, 2),
            "C": cantor_function(grid.times, params.cantor_depth)}


def test_cantor_sde_columns_and_clock():
    grid = SimGrid(T=1.0, n=81, master_seed=12)
    increments = simulate_cantor_sde_batch(CantorParams(s0=1.0), grid, [0])
    assert set(increments) == {"S", "dW_C"} and increments["dW_C"].shape == (1, 81, 1)
    p = cantor_paths(CantorParams(s0=1.0), grid, [0])
    assert p["S"].shape == p["W_C"].shape == (1, 82, 1)
    C = p["C"]
    assert np.array_equal(C, cantor_function(grid.times))
    dC = np.diff(C)
    assert np.all(dC >= 0.0)
    assert float(dC.sum()) == pytest.approx(1.0, rel=1e-12)
    assert C[0] == 0.0 and C[-1] == 1.0


def test_cantor_sde_constant_on_plateaus():
    grid = SimGrid(T=1.0, n=81, master_seed=12)
    p = cantor_paths(CantorParams(s0=1.0), grid, [1])
    dC = np.diff(p["C"])
    flat = dC == 0.0
    assert flat.sum() >= 20  # middle-third plateau alone spans ~27 steps
    assert np.all(np.diff(p["W_C"][0, :, 0])[flat] == 0.0)
    assert np.all(np.diff(p["S"][0, :, 0])[flat] == 0.0)


def test_cantor_sde_determinism_and_batch():
    grid = SimGrid(T=1.0, n=27, master_seed=4)
    params = CantorParams(s0=1.0)
    p = cantor_paths(params, grid, [6])
    again = cantor_paths(params, grid, [6])
    batch = cantor_paths(params, grid, [6, 9])
    q = cantor_paths(params, grid, [9])
    for name in ("S", "W_C"):
        assert np.array_equal(p[name], again[name])
        assert np.array_equal(batch[name][0], p[name][0])
        assert np.array_equal(batch[name][1], q[name][0])
    assert np.array_equal(batch["C"], p["C"])


def test_cantor_sde_matches_manual_euler():
    grid = SimGrid(T=1.0, n=9, master_seed=55)
    p = cantor_paths(CantorParams(s0=1.5), grid, [2])
    z = path_rng(55, 2).standard_normal((9, 1))[:, 0]
    C = cantor_function(grid.times)
    dW = np.sqrt(np.clip(np.diff(C), 0.0, None)) * z
    S = [1.5]
    for k in range(9):
        S.append(S[-1] + (1.0 + 0.3 * np.tanh(S[-1])) * dW[k])
    assert np.allclose(p["S"][0, :, 0], S, rtol=1e-13)
    assert np.allclose(p["W_C"][0, :, 0], np.concatenate([[0.0], np.cumsum(dW)]),
                       rtol=1e-13, atol=1e-16)


def test_cantor_sde_two_assets():
    grid = SimGrid(T=1.0, n=27, master_seed=21)
    params = CantorParams(s0=(1.0, 1.0), rho=1.0)
    own = simulate_cantor_sde_batch(params, grid, [0])
    assert all(own[name].transpose(1, 2, 0).flags.c_contiguous for name in ("S", "dW_C"))
    p = cantor_paths(params, grid, [0])
    assert p["S"].shape == p["W_C"].shape == (1, 28, 2)
    # perfectly correlated drivers and identical dynamics -> identical assets
    assert np.allclose(p["W_C"][..., 0], p["W_C"][..., 1], atol=1e-15)
    assert np.allclose(p["S"][..., 0], p["S"][..., 1], atol=1e-15)
    indep = cantor_paths(CantorParams(s0=(1.0, 1.0)), grid, [0])
    assert not np.allclose(indep["W_C"][..., 0], indep["W_C"][..., 1])


def test_cantor_sde_terminal_driver_variance():
    # W_C(1) = sum sqrt(dC_k) z_k is exactly N(0, C(1)) in distribution
    grid = SimGrid(T=1.0, n=27, master_seed=3)
    batch = cantor_paths(CantorParams(s0=1.0), grid, range(2000))
    ends = batch["W_C"][:, -1, 0]
    assert abs(np.var(ends) - 1.0) < 0.15
    assert abs(np.mean(ends)) < 0.1


def test_cantor_sde_input_validation():
    params = CantorParams(s0=1.0)
    with pytest.raises(ValueError, match="T <= 1"):
        simulate_cantor_sde_batch(params, SimGrid(T=2.0, n=10, master_seed=0), [0])
    with pytest.raises(ValueError, match="carry 3"):
        simulate_cantor_sde_batch(CantorParams(s0=(1.0, 1.0, 1.0)),
                                  SimGrid(T=1.0, n=10, master_seed=0), [0])


# ---------------------------------------------------------------------------
# Every simulator
# ---------------------------------------------------------------------------


SIMULATORS = [
    (simulate_heston_batch, HP),
    (simulate_heston2_batch, heston2_params()),
    (simulate_cantor_sde_batch, CantorParams(s0=0.5)),
    (simulate_cantor_sde_batch, CantorParams(s0=(1.0, 2.0), vol_kind="linear",
                                             nu=(0.2, 0.3), rho=0.6)),
]
SIMULATOR_IDS = ["heston", "heston2", "cantor", "cantor2"]


@pytest.mark.parametrize("simulate, params", SIMULATORS, ids=SIMULATOR_IDS)
def test_simulator_rows_equal_in_one_batch_and_in_chunks(simulate, params):
    # a batch is stored paths last, and every step is one vector over the
    # batch; a path's rows must not depend on the batch it is simulated in
    grid = SimGrid(T=1.0, n=25, master_seed=11)
    indices = [4, 0, 9, 2, 7, 5, 1]
    whole = simulate(params, grid, indices)
    parts = [simulate(params, grid, indices[a:b]) for a, b in ((0, 3), (3, 4), (4, 7))]
    for name, arr in whole.items():
        joined = np.concatenate([p[name] for p in parts])
        assert joined.shape == arr.shape == (len(indices),) + arr.shape[1:], name
        assert np.array_equal(np.ascontiguousarray(joined).view(np.uint8),
                              np.ascontiguousarray(arr).view(np.uint8)), name


@pytest.mark.parametrize(
    "simulate, params",
    SIMULATORS + [(simulate_heston_batch, ROUGH), (simulate_heston_batch, FLAT)],
    ids=SIMULATOR_IDS + ["rough", "sigma0"])
def test_simulator_out_only_says_where_the_arrays_live(simulate, params):
    # in the leading simulation_values values of a NaN-filled buffer, the
    # simulator returns the keys and bits of a call without 'out', as views
    # of the buffer, and touches no value past them (Heston models whose
    # variance hits 0, or whose vol of vol is 0, too): Heston's S and V are
    # the columns of an (n+1, 2, B) view, the other prices the buffer's last
    # (n+1)AB values.  A buffer one value short, and a Cantor clock beyond
    # T = 1, are refused before anything is drawn
    grid = SimGrid(T=1.0, n=25, master_seed=11)
    indices = [4, 0, 9, 2, 7]
    B = len(indices)
    expected = simulate(params, grid, indices)
    size = simulation_values(params, grid.n, B)
    out = np.full(size + 3, np.nan)
    got = simulate(params, grid, indices, out=out)
    assert list(got) == list(expected)
    for name, arr in got.items():
        assert arr.shape == expected[name].shape and arr.shape[:2] in (
            (B, grid.n), (B, grid.n + 1)), name
        assert np.array_equal(arr.view(np.uint64), expected[name].view(np.uint64)), name
        assert np.shares_memory(arr, out[:size]), name
    if simulate is simulate_heston_batch:
        view = out[:size].reshape(grid.n + 1, 2, B)
        assert np.array_equal(view[:, 0].T, got["S"]) and np.array_equal(view[:, 1].T, got["V"])
    else:
        S = got["S"]
        tail = out[size - S.size:size].reshape(grid.n + 1, S.shape[2], B)
        assert np.array_equal(tail.transpose(2, 0, 1), S)
    assert np.all(np.isnan(out[size:]))
    before = out.copy()
    with pytest.raises(ValueError, match="'out' must be a flat C-contiguous float64 array"):
        simulate(params, grid, indices, out=out[:size - 1])
    assert np.array_equal(out, before, equal_nan=True)
    if simulate is simulate_cantor_sde_batch:
        with pytest.raises(ValueError, match="T <= 1"):
            simulate(params, SimGrid(T=2.0, n=grid.n, master_seed=11), indices, out=out)
        assert np.array_equal(out, before, equal_nan=True)
