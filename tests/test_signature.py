"""Tests for discrete gamma-signatures of sampled paths.

The oracle below evaluates the defining per-step recursion in plain Python
floats, independent of both the vectorized level sweep and the per-step
concatenation product in the library.
"""
from __future__ import annotations

import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gammasig import (
    Alphabet,
    SamplePath,
    TensorPoly,
    augment_path,
    bracket_columns,
    concat,
    endpoint_signature_batch,
    enumerate_words,
    functional_matrix,
    functional_paths,
    gamma_signature,
    gamma_signature_chen,
    pair,
    quadratic_variation,
    read_path_csv,
    write_path_csv,
    write_sig_csv,
)
from gammasig import experiments, signature
from gammasig.signature import cumsum0
from conftest import make_random_path


def oracle_sig_coeff(path: SamplePath, word: tuple, gamma: float) -> list[float]:
    """S_word(t_k) for every k via the defining recursion, plain Python."""
    n = path.n_steps
    if not word:
        return [1.0] * (n + 1)
    prev = oracle_sig_coeff(path, word[:-1], gamma)
    col = path.values[:, path.alphabet.index(word[-1])]
    out = [0.0]
    for k in range(n):
        integrand = prev[k] + gamma * (prev[k + 1] - prev[k])
        out.append(out[-1] + integrand * (col[k + 1] - col[k]))
    return out


# ---------------------------------------------------------------------------
# SamplePath
# ---------------------------------------------------------------------------


def test_sample_path_validation():
    a = Alphabet(2)
    good = SamplePath([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]], a)
    assert good.n_steps == 1 and good.dim == 2
    with pytest.raises(ValueError):
        SamplePath([0.0, 0.0], [[0.0, 0.0], [1.0, 2.0]], a)
    with pytest.raises(ValueError):
        SamplePath([1.0, 0.5], [[0.0, 0.0], [1.0, 2.0]], a)
    with pytest.raises(ValueError):
        SamplePath([0.0, 1.0], [[0.0, np.nan], [1.0, 2.0]], a)
    with pytest.raises(ValueError):
        SamplePath([0.0, 1.0], [[0.0], [1.0]], a)
    with pytest.raises(ValueError):
        SamplePath([], np.empty((0, 2)), a)


def test_sample_path_accessors():
    a = Alphabet(2, has_time=True)
    times = np.array([0.0, 0.5, 1.0])
    values = np.column_stack([times, [0.0, 1.0, 3.0], [1.0, 1.0, 0.0]])
    p = SamplePath(times, values, a)
    assert np.array_equal(p.increments(), np.diff(values, axis=0))
    sub = p.sub_path(1, 2)
    assert sub.n_steps == 1 and sub.times[0] == 0.5
    single = p.sub_path(2, 2)
    assert single.n_steps == 0
    with pytest.raises(ValueError):
        p.sub_path(2, 1)
    with pytest.raises(ValueError):
        p.sub_path(0, 5)


def test_sample_path_1d_values_promoted():
    p = SamplePath([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], Alphabet(1))
    assert p.values.shape == (3, 1)


# ---------------------------------------------------------------------------
# Quadratic variation
# ---------------------------------------------------------------------------


def path_013() -> SamplePath:
    return SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], Alphabet(1))


def test_quadratic_variation_scalar_examples():
    p = path_013()
    assert quadratic_variation(p, 0.0)[-1][0, 0] == 5.0
    assert quadratic_variation(p, 0.5)[-1][0, 0] == 0.0
    assert quadratic_variation(p, 1.0)[-1][0, 0] == -5.0
    qv = quadratic_variation(p, 0.0)
    assert qv.shape == (3, 1, 1)
    assert np.array_equal(qv[0], np.zeros((1, 1)))
    assert qv[1][0, 0] == 1.0


def test_quadratic_variation_matrix_properties(rng):
    p = make_random_path(rng, 30, 3)
    qv0 = quadratic_variation(p, 0.0)
    for k in range(31):
        m = qv0[k]
        assert np.array_equal(m, m.T)
    diag = np.stack([np.diag(qv0[k]) for k in range(31)])
    assert np.all(np.diff(diag, axis=0) >= 0)
    qv_g = quadratic_variation(p, 0.25)
    assert np.allclose(qv_g, 0.5 * qv0, rtol=0, atol=1e-15)
    assert np.all(quadratic_variation(p, 0.5) == 0.0)
    with pytest.raises(ValueError):
        quadratic_variation(p, 1.5)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def test_augment_path_layout():
    rng = np.random.default_rng(3)
    p = make_random_path(rng, 10, 2)
    full = augment_path(p, 0.0, include_time=True, include_brackets=True)
    assert full.dim == 6
    assert full.alphabet == Alphabet(2, has_time=True, has_brackets=True)
    alphabet = full.alphabet
    assert np.array_equal(full.values[:, alphabet.index(0)], p.times)
    qv = quadratic_variation(p, 0.0)
    assert np.array_equal(full.values[:, alphabet.index(3)], qv[:, 0, 0])
    assert np.array_equal(full.values[:, alphabet.index(4)], qv[:, 0, 1])
    assert np.array_equal(full.values[:, alphabet.index(5)], qv[:, 1, 1])


def test_augment_path_scalar_example():
    p = path_013()
    full = augment_path(p, 0.0, include_time=True, include_brackets=True)
    assert np.array_equal(full.values[:, 2], [0.0, 1.0, 5.0])
    half = augment_path(p, 0.5, include_time=False, include_brackets=True)
    assert np.all(half.values[:, 1] == 0.0)
    scaled = augment_path(p, 1.0, include_time=False, include_brackets=True,
                          scaled_brackets=True)
    assert np.array_equal(scaled.values[:, 1], [0.0, -1.0, -5.0])
    unscaled = augment_path(p, 1.0, include_time=False, include_brackets=True)
    assert np.array_equal(unscaled.values[:, 1], [0.0, 1.0, 5.0])


def test_augment_path_rejects_augmented_input():
    p = path_013()
    once = augment_path(p, 0.0, include_time=True, include_brackets=False)
    with pytest.raises(ValueError):
        augment_path(once, 0.0, include_time=True, include_brackets=False)


# ---------------------------------------------------------------------------
# gamma_signature
# ---------------------------------------------------------------------------


def test_two_step_levels_by_hand():
    p = path_013()
    for gamma, lvl2 in [(0.0, 2.0), (0.5, 4.5), (1.0, 7.0)]:
        traj = gamma_signature(p, gamma, 2)
        assert traj.coeff_path((1,))[-1] == 3.0
        assert traj.coeff_path((1, 1))[-1] == lvl2


def test_linear_path_levels_approach_factorials():
    n = 1000
    t = np.linspace(0.0, 1.0, n + 1)
    p = SamplePath(t, t.copy(), Alphabet(1))
    for gamma in (0.0, 0.5, 1.0):
        traj = gamma_signature(p, gamma, 4)
        for k in range(1, 5):
            end = traj.coeff_path((1,) * k)[-1]
            assert abs(end - 1.0 / math.factorial(k)) <= 2.0 / n


def test_matches_plain_python_recursion_oracle(rng):
    for _ in range(12):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, 3))
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        p = make_random_path(rng, n, d)
        traj = gamma_signature(p, gamma, 3)
        for word in enumerate_words(p.alphabet, 3):
            got = traj.coeff_path(word)
            want = oracle_sig_coeff(p, word, gamma)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (word, gamma)


def test_concatenation_oracle_agrees(rng):
    for _ in range(8):
        p = make_random_path(rng, int(rng.integers(2, 20)), 2)
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        a = gamma_signature(p, gamma, 3)
        b = gamma_signature_chen(p, gamma, 3)
        for la, lb in zip(a.levels, b.levels):
            scale = max(1.0, np.abs(la).max())
            assert np.abs(la - lb).max() <= 1e-12 * scale


def test_single_step_end_is_step_element(rng):
    dx = np.array([0.7, -1.2])
    p = SamplePath([0.0, 1.0], np.stack([np.zeros(2), dx]), Alphabet(2))
    for gamma in (0.0, 0.5, 1.0):
        end = gamma_signature(p, gamma, 3).end
        for m in range(1, 4):
            block = dx
            for _ in range(m - 1):
                block = np.outer(block, dx).ravel()
            expect = (gamma ** (m - 1)) * block
            got = [end.coeff(w) for w in itertools.product((1, 2), repeat=m)]
            assert np.allclose(got, expect, rtol=1e-14, atol=1e-15)


def test_level2_scheme_differences_equal_qv(rng):
    for _ in range(10):
        p = make_random_path(rng, 25, 2)
        qv = quadratic_variation(p, 0.0)
        flat = qv.reshape(len(p.times), 4)
        strat = gamma_signature(p, 0.5, 2).levels[1]
        ito = gamma_signature(p, 0.0, 2).levels[1]
        back = gamma_signature(p, 1.0, 2).levels[1]
        scale = max(1.0, np.abs(flat).max())
        assert np.abs(strat - ito - 0.5 * flat).max() <= 1e-13 * scale
        assert np.abs(back - ito - flat).max() <= 1e-13 * scale


def test_zero_and_unit_levels():
    p = path_013()
    traj = gamma_signature(p, 0.0, 0)
    assert traj.trunc_level == 0
    assert np.array_equal(traj.coeff_path(()), np.ones(3))
    assert traj.sig_at(0) == TensorPoly.unit(p.alphabet, 0)
    single = SamplePath([0.0], [[1.0]], Alphabet(1))
    unit_traj = gamma_signature(single, 0.5, 3)
    assert unit_traj.end == TensorPoly.unit(Alphabet(1), 3)
    # a batch of single grid points (n = 0): every level is zero, so the
    # pairings are the constant terms
    alphabet = Alphabet(2)
    values = np.array([[[1.0, -2.0]], [[0.5, 3.0]]])
    for N in (1, 2, 3):
        word = enumerate_words(alphabet, N)[-1]
        functionals = [TensorPoly(alphabet, N, {(): 0.75, word: 2.0}),
                       TensorPoly.basis(alphabet, N, word)]
        for gamma in (0.0, 0.5, 1.0):
            ends = endpoint_signature_batch(values, gamma, N)
            assert [e.shape for e in ends] == [(2, 2 ** m) for m in range(1, N + 1)]
            assert all(np.array_equal(e, np.zeros_like(e)) for e in ends)
            assert np.array_equal(functional_paths(values, gamma, functionals),
                                  np.tile([0.75, 0.0], (2, 1, 1)))
    with pytest.raises(ValueError):
        gamma_signature(p, -0.1, 2)
    with pytest.raises(ValueError):
        gamma_signature(p, 0.0, -1)


def test_level1_equals_increments(rng):
    p = make_random_path(rng, 40, 3)
    traj = gamma_signature(p, 0.25, 1)
    rel = p.values - p.values[0]
    assert np.allclose(traj.levels[0], rel, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# Chen multiplicativity
# ---------------------------------------------------------------------------


def test_chen_multiplicativity_every_split(rng):
    p = make_random_path(rng, 8, 2)
    for gamma in (0.0, 0.5, 1.0):
        traj = gamma_signature(p, gamma, 3)
        total = traj.end
        for s in range(9):
            left = traj.sig_at(s)
            right = gamma_signature(p.sub_path(s, 8), gamma, 3).end
            prod = concat(left, right)
            for w in enumerate_words(p.alphabet, 3):
                assert abs(prod.coeff(w) - total.coeff(w)) \
                    <= 1e-12 * max(1.0, abs(total.coeff(w)))


# ---------------------------------------------------------------------------
# Feature matrices
# ---------------------------------------------------------------------------


def basis(traj, words):
    return [TensorPoly.basis(traj.alphabet, traj.trunc_level, w) for w in words]


def test_basis_functional_matrix_examples(rng):
    p = path_013()
    traj = gamma_signature(p, 0.0, 2)
    X = functional_matrix(traj, basis(traj, [(), (1,), (1, 1)]))
    assert X.shape == (3, 3)
    assert np.allclose(X[-1], [1.0, 3.0, 2.0])
    assert np.allclose(X[:, 0], 1.0)
    assert np.allclose(X[:, 1], [0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        functional_matrix(traj, [TensorPoly.basis(p.alphabet, 3, (1, 1, 1))])


def test_basis_functional_matrix_level1_columns_are_increments(rng):
    for _ in range(4):
        p = make_random_path(rng, 12, 2)
        traj = gamma_signature(p, 0.5, 2)
        X = functional_matrix(traj, basis(traj, [(1,), (2,)]))
        assert np.allclose(X, p.values - p.values[0])
        assert np.array_equal(X, traj.levels[0])


def test_functional_matrix_matches_pairing(rng):
    p = make_random_path(rng, 15, 2)
    traj = gamma_signature(p, 0.0, 3)
    a = p.alphabet
    ells = [
        TensorPoly(a, 3, {(1,): 2.0, (2, 1): -0.5}),
        TensorPoly(a, 3, {(): 1.0, (1, 1, 2): 3.0}),
    ]
    X = functional_matrix(traj, ells)
    assert X.shape == (16, 2)
    for j, ell in enumerate(ells):
        assert X[-1, j] == pytest.approx(float(pair(ell, traj.end)), rel=1e-12)
    for k in (0, 7, 15):
        for j, ell in enumerate(ells):
            assert X[k, j] == pytest.approx(
                float(pair(ell, traj.sig_at(k))), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        functional_matrix(traj, [TensorPoly.basis(Alphabet(3), 2, (1,))])


def test_endpoint_batch_matches_per_path(rng):
    B, n, L = 5, 20, 3
    values = np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
    for gamma in (0.0, 0.5, 1.0):
        ends = endpoint_signature_batch(values, gamma, 3)
        for b in range(B):
            p = SamplePath(np.arange(n + 1, dtype=float), values[b], Alphabet(3))
            traj = gamma_signature(p, gamma, 3)
            for m in range(3):
                ref = traj.levels[m][-1]
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(ends[m][b] - ref).max() <= 1e-10 * scale


#: Steps per window of the level recursion; None walks the grid in one.
WINDOWS = (1, 2, 3, None)


def window_id(steps: int | None) -> str:
    return f"window{steps}" if steps else "whole-grid"


@pytest.fixture
def window(monkeypatch):
    """``window(steps)`` makes every later level recursion walk the grid in
    windows of ``steps`` steps (None: the whole grid in one): it sets the
    window byte constant, per call, to that many steps of the call's widest
    level, and checks the windows the call takes."""
    real = signature._levels

    def use(steps):
        def levels(values, gamma, reads):
            n_plus_1, L, B = values.shape
            widest = max((L ** m if read is None else read.shape[1]
                          for m, read in enumerate(reads, 1)), default=L)
            K = steps or n_plus_1 - 1
            monkeypatch.setattr(signature, "_WINDOW_BYTES", 8 * B * widest * max(K, 1))
            for start, dX, window_levels in real(values, gamma, reads):
                assert start % K == 0 and len(dX) == min(K, n_plus_1 - 1 - start)
                yield start, dX, window_levels

        monkeypatch.setattr(signature, "_levels", levels)
    return use


def test_endpoint_batch_lower_levels_bitwise_equal_per_path(rng, window):
    # levels below the top take the same level step as gamma_signature, so
    # they agree bit for bit, in windows of any size; only the top level is
    # contracted differently
    B, n, L = 4, 15, 2
    values = np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
    times = np.arange(n + 1, dtype=float)
    for steps in WINDOWS:
        window(steps)
        for N in (2, 3, 4):
            for gamma in (0.0, 0.25, 0.5, 1.0):
                ends = endpoint_signature_batch(values, gamma, N)
                for b in range(B):
                    traj = gamma_signature(SamplePath(times, values[b], Alphabet(L)),
                                           gamma, N - 1)
                    for m in range(N - 1):
                        assert np.array_equal(ends[m][b], traj.levels[m][-1]), (steps, N)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_endpoint_batch_lower_levels_keep_signed_zeros():
    # a constant letter has level-1 gamma-points +0.0, so its level-2 step
    # products with a falling letter are all -0.0, which a cumulative sum
    # keeps; the running sums of the end-point pass keep them too
    n = 12
    times = np.arange(n + 1, dtype=float)
    values = np.stack([np.full(n + 1, 2.0), -times, np.sin(times)], axis=1)[None]
    for gamma in (0.0, 0.5, 1.0):
        traj = gamma_signature(SamplePath(times, values[0], Alphabet(3)), gamma, 3)
        assert np.signbit(traj.levels[1][-1, 1])
        ends = endpoint_signature_batch(values, gamma, 4)
        for m in range(3):
            assert np.array_equal(_bits(ends[m][0]), _bits(traj.levels[m][-1])), (gamma, m)


def test_endpoint_batch_bits_independent_of_memory_layout(rng):
    # the top-level contraction sums in an order set by its operands' layout;
    # equal values in any layout must give the bits of their C copy
    B, n = 6, 40
    times = np.linspace(0.0, 1.0, n + 1)
    base = np.cumsum(0.1 * rng.normal(size=(B, n + 1, 4)), axis=1)
    time_col = np.broadcast_to(times, (B, n + 1))[:, :, None]
    concatenated = np.concatenate([time_col, base[:, :, [0, 2]]], axis=2)
    c_values = np.ascontiguousarray(concatenated)
    layouts = {
        "fortran": np.asfortranarray(c_values),
        "fancy-indexed": np.concatenate([time_col, base], axis=2)[:, :, [0, 1, 3]],
        "concatenated": concatenated,
    }
    for name, values in layouts.items():
        assert not values.flags.c_contiguous and np.array_equal(values, c_values), name
        for gamma in (0.0, 0.5, 1.0):
            for N in (1, 2, 3):
                ref = endpoint_signature_batch(c_values, gamma, N)
                got = endpoint_signature_batch(values, gamma, N)
                for m in range(N):
                    assert np.array_equal(_bits(got[m]), _bits(ref[m])), (name, gamma, N, m)


@pytest.mark.parametrize("alphabet", [Alphabet(1), Alphabet(2, has_time=True),
                                      Alphabet(2, has_time=True, has_brackets=True)])
def test_batch_kernels_bits_equal_for_c_order_and_batch_last_views(rng, alphabet):
    # the batched kernels work on (n+1, L, B) arrays, paths last; a C-ordered
    # (B, n+1, L) batch and a transpose view of a batch-last buffer holding
    # the same values give the same bits, also for a batch of one path
    L = alphabet.total_letters
    for B, n in ((5, 30), (1, 30), (4, 1)):
        c_values = np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
        view = np.ascontiguousarray(c_values.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.array_equal(view, c_values)
        assert not view.flags.c_contiguous or B == 1
        assert np.array_equal(_bits(bracket_columns(view)), _bits(bracket_columns(c_values)))
        for gamma in (0.0, 0.5):
            for N in (1, 2, 3):
                ref = endpoint_signature_batch(c_values, gamma, N)
                got = endpoint_signature_batch(view, gamma, N)
                alone = [endpoint_signature_batch(c_values[b:b + 1], gamma, N)
                         for b in range(B)]
                for m in range(N):
                    assert np.array_equal(_bits(got[m]), _bits(ref[m])), (B, gamma, N, m)
                    assert np.array_equal(_bits(np.concatenate([a[m] for a in alone])),
                                          _bits(ref[m])), (B, gamma, N, m)
                for ells in filter(None, pairing_families(rng, alphabet, N)):
                    assert np.array_equal(_bits(functional_paths(view, gamma, ells)),
                                          _bits(functional_paths(c_values, gamma, ells))), \
                        (B, gamma, N, len(ells))


def test_cumsum0_and_bracket_columns_accumulate_into_out(rng):
    # each bracket column is the running sum of its pair's increment
    # products, whatever the order the columns are formed in.  Given memory
    # of any layout (here a strided column block of a batch-last buffer,
    # filled with NaN) receives the bits the allocating call returns, and
    # is what the call returns
    for d in (1, 2, 3):
        values = np.cumsum(rng.normal(size=(3, 12, d)), axis=1)
        dX = np.diff(values, axis=1)
        expected = np.stack([cumsum0((dX[:, :, i] * dX[:, :, j]).T).T
                             for i in range(d) for j in range(i, d)], axis=2)
        assert np.array_equal(_bits(bracket_columns(values)), _bits(expected)), d
    B, n, d = 4, 30, 2
    values = np.cumsum(rng.normal(size=(B, n + 1, d)), axis=1)
    block = np.full((n + 1, 6, B), np.nan)
    out = block[:, 3:].transpose(2, 0, 1)
    got = bracket_columns(values, out=out)
    assert np.shares_memory(got, block) and got.shape == out.shape
    assert np.array_equal(_bits(got), _bits(bracket_columns(values)))
    assert np.isnan(block[:, :3]).all()
    increments = rng.normal(size=(n, 3, B))
    view = np.full((n + 1, 3, B), np.nan)[:, ::-1]
    assert cumsum0(increments, out=view) is view
    assert np.array_equal(_bits(view), _bits(cumsum0(increments)))


def _whole_cumsum(increments: np.ndarray) -> np.ndarray:
    """The reference of cumsum0: one whole-array np.longdouble cumsum along
    the leading axis behind a zero row, cast to float64."""
    total = np.cumsum(np.asarray(increments, dtype=np.longdouble), axis=0)
    return np.concatenate([np.zeros((1,) + total.shape[1:]), total]).astype(np.float64)


@pytest.mark.parametrize("window_bytes", [8, 64, signature._WINDOW_BYTES])
def test_cumsum0_windows_keep_the_whole_cumsum_bits(monkeypatch, rng, window_bytes):
    # the sums go on from window to window in extended precision, so every
    # window size gives the bits of one whole-array cumsum: on 1-D, 2-D and
    # 3-D increments, a strided view, a strided out, no step at all and a
    # -0.0 first increment (whose sign the running sum keeps)
    monkeypatch.setattr(signature, "_WINDOW_BYTES", window_bytes)
    for shape in ((0,), (1,), (37,), (0, 3), (1, 4), (29, 3), (23, 2, 5)):
        increments = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        if increments.size:
            increments[0] = -0.0
        expected = _whole_cumsum(increments)
        got = cumsum0(increments)
        assert got.shape == expected.shape and got.flags.c_contiguous, shape
        assert np.array_equal(_bits(got), _bits(expected)), shape
        if increments.ndim > 1:
            strided = np.asfortranarray(increments)[:, ::-1]
            assert np.array_equal(_bits(cumsum0(strided)), _bits(expected[:, ::-1])), shape
            out = np.full(expected.shape[::-1] + (2,), np.nan)[..., 0].T
            assert cumsum0(increments, out=out) is out
            assert np.array_equal(_bits(out), _bits(expected)), shape
    # out[1:] over the increments' own memory, as bracket_columns sums
    block = rng.normal(size=(31, 3, 4))
    expected = _whole_cumsum(block[1:, 1])
    assert np.array_equal(_bits(cumsum0(block[1:, 1], out=block[:, 1])), _bits(expected))


def test_cumsum0_new_output_has_the_axis_order_of_the_increments(rng):
    # a new output is laid out in memory as np.empty_like lays out the
    # increments: C order for a C-ordered input, Fortran order for a
    # Fortran-ordered one, so that the transpose views of batch-last
    # buffers stay batch-last
    increments = rng.normal(size=(3, 40)).T
    assert cumsum0(increments).flags.f_contiguous
    assert cumsum0(np.ascontiguousarray(increments)).flags.c_contiguous


def test_cumsum0_peak_memory_is_its_output_and_one_window(rng):
    # 400 steps of 600 paths: the tracemalloc peak of a call is its new
    # output and one window of extended-precision sums, not a longdouble
    # copy of the increments (two outputs' worth)
    increments = rng.normal(size=(400, 600))
    cumsum0(increments[:2])
    tracemalloc.start()
    try:
        out = cumsum0(increments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + signature._WINDOW_BYTES + 16 * 1024, peak - out.nbytes


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_level_one_is_the_increment_and_level_two_reads_its_gamma_points(rng, L):
    # level 1 telescopes to X - X_0, one subtraction; the level-2 step and
    # the top-level contraction read (X - X_0)_k + gamma * dX_k, which is
    # the path's own left points at gamma = 0
    B, n = 3, 17
    alphabet = Alphabet(L)
    times = np.arange(n + 1, dtype=float)
    values = 2.0 + np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
    assert np.all(values[:, 0] != 0.0)
    level1 = values - values[:, :1]
    dX = np.diff(values, axis=1)
    firsts = [TensorPoly.basis(alphabet, 1, (a,)) for a in range(1, L + 1)]
    for gamma in (0.0, 0.5, 1.0):
        points = level1[:, :-1] if gamma == 0.0 else level1[:, :-1] + gamma * dX
        if gamma == 0.0:
            assert np.shares_memory(points, level1)
        ends = endpoint_signature_batch(values, gamma, 2)
        assert np.array_equal(_bits(ends[0]), _bits(level1[:, -1]))
        # the top level adds one outer product per step, in time order
        top = np.zeros((B, L, L))
        for k in range(n):
            top = top + points[:, k, :, None] * dX[:, k, None, :]
        top = top.reshape(B, L * L)
        assert np.array_equal(_bits(ends[1]), _bits(top)), gamma
        assert np.array_equal(_bits(functional_paths(values, gamma, firsts)),
                              _bits(level1)), gamma
        a, c = L - 1, 0
        second = [TensorPoly.basis(alphabet, 2, (a + 1, c + 1))]
        running = cumsum0((points[:, :, a] * dX[:, :, c]).T).T
        # the pairing sums its word weights over letters, which turns a -0.0
        # product into +0.0
        assert np.array_equal(_bits(functional_paths(values, gamma, second)[..., 0]),
                              _bits(running + 0.0)), gamma
        for b in range(B):
            traj = gamma_signature(SamplePath(times, values[b], alphabet), gamma, 2)
            assert np.array_equal(_bits(traj.levels[0]), _bits(level1[b]))
            assert np.array_equal(_bits(traj.levels[1][:, a * L + c]),
                                  _bits(running[b])), (gamma, b)


def _peak_ratio(shape, kernel):
    """``tracemalloc`` peak of one call ``kernel(values)`` on a random batch
    of paths of ``shape``, in units of the batch's bytes."""
    values = np.cumsum(np.random.default_rng(3).normal(size=shape), axis=1)
    tracemalloc.start()
    try:
        kernel(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / values.nbytes


@pytest.mark.parametrize("gamma, bound", [(0.0, 0.25), (0.5, 0.25)])
def test_level_two_endpoint_pass_peak_memory(gamma, bound):
    # a level-2 pass holds its top level and one step product, and forms
    # each step's increment and level-1 gamma-point from two rows of the
    # path (about 0.07x); no level is stored along the grid, level 1 (X - X_0)
    # included, which alone would be 1.0x
    ratio = _peak_ratio((1500, 253, 6),
                        lambda values: endpoint_signature_batch(values, gamma, 2))
    assert ratio <= bound, ratio


@pytest.mark.parametrize("gamma, bound", [(0.0, 1.5), (0.5, 1.5)])
def test_level_three_endpoint_pass_peak_memory(gamma, bound):
    # a level-3 pass carries level 2 as its running state, an
    # extended-precision sum and its float64 cast (L**2, B), beside the top
    # level and one step product (about 1.13x on 100 steps); the level-2
    # trajectory along the grid alone would be L = 6x, and its
    # extended-precision running sum about 12x
    ratio = _peak_ratio((300, 101, 6),
                        lambda values: endpoint_signature_batch(values, gamma, 3))
    assert ratio <= bound, ratio


@pytest.mark.parametrize("gamma, bound", [(0.0, 1.25), (0.5, 1.25)])
def test_calibration_chunk_peak_memory(gamma, bound):
    # a calibration test chunk pairs one folded level-3 functional of three
    # letters: level 2 is carried as the 1 + L = 4 columns the pairing and
    # the top level read, never as its L**2 = 9 columns, and every level is
    # walked in windows, so beside the pairings (0.33x) only one window's
    # buffers are held (about 0.9x); whole levels along the grid took 8.7x
    # at gamma = 0 and 9.7x at gamma = 1/2
    ell = dense_functionals(np.random.default_rng(5), Alphabet(2, has_time=True), 3, 1)
    ratio = _peak_ratio((100, 1001, 3),
                        lambda values: functional_paths(values, gamma, ell))
    assert ratio <= bound, ratio


ALPHABETS = [
    Alphabet(2),
    Alphabet(1, has_time=True),
    Alphabet(1, has_time=True, has_brackets=True),
    Alphabet(2, has_time=True, has_brackets=True),
]


def mixed_functionals(rng, alphabet, N):
    """A basis functional, a constant plus a level-N word, four random terms
    on levels up to N, and a constant."""
    words = enumerate_words(alphabet, N)
    top = [w for w in words if len(w) == N]
    return [
        TensorPoly.basis(alphabet, N, top[-1]),
        TensorPoly(alphabet, N, {(): 0.75, top[0]: -1.5}),
        TensorPoly(alphabet, N, {w: float(rng.normal()) for w in
                                 (words[i] for i in rng.choice(len(words), 4))}),
        TensorPoly(alphabet, N, {(): 1.0}),
    ]


def dense_functionals(rng, alphabet, N, p):
    """p functionals with a random coefficient on every word up to level N,
    like a folded fit sum_j beta_j f_j."""
    words = enumerate_words(alphabet, N)
    return [TensorPoly(alphabet, N, {w: float(rng.normal()) for w in words})
            for _ in range(p)]


def sparse_functionals(rng, alphabet, N):
    """Two functionals of top level N that read few letters: one with a
    random coefficient on every word below the top and on the top words
    ending in one letter, like a calibration fit, whose features all end in
    the driver letter; and one on the prefixes of one random word of length
    N, which reads a single letter per level."""
    words = enumerate_words(alphabet, N)
    last = alphabet.letters[rng.integers(alphabet.total_letters)]
    chain = tuple(alphabet.letters[i] for i in rng.integers(alphabet.total_letters, size=N))
    return [
        [TensorPoly(alphabet, N, {w: float(rng.normal()) for w in words
                                  if len(w) < N or w[-1] == last})],
        [TensorPoly(alphabet, N, {chain[:m]: float(rng.normal()) for m in range(1, N + 1)})],
    ]


def pairing_families(rng, alphabet, N):
    """The mixed family (p = 4) and families whose levels below the top are
    carried as S^m @ R_m: one and two dense functionals (top level N), and
    the two sparse ones of :func:`sparse_functionals`, whose levels skip
    the letters they never read.  At level 2 also the fallback boundary,
    the level-2 basis (c_2 = p = L**2, so the top is formed whole), and the
    basis less one word (c_2 = L**2 - 1).  Below the top, the width that
    decides the route, p * (1 + L + .. + L**(N-m)), is p modulo L and cannot
    equal L**m."""
    families = [mixed_functionals(rng, alphabet, N)]
    if N >= 2:
        families += [dense_functionals(rng, alphabet, N, 1),
                     dense_functionals(rng, alphabet, N, 2),
                     *sparse_functionals(rng, alphabet, N)]
    if N == 2:
        basis = [TensorPoly.basis(alphabet, 2, w)
                 for w in enumerate_words(alphabet, 2) if len(w) == 2]
        families += [basis, basis[1:]]
    return families


PAIRING_GAMMAS = (0.0, 0.25, 0.5, 1.0)


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_functional_paths_agree_with_functional_matrix(rng, alphabet):
    # the levels below the top are read through the columns the levels above
    # need, and the top level is contracted with the functionals, before the
    # running sums instead of after them, so the two routes agree to
    # roundoff only; a batch of single grid points (n = 0) pairs to the
    # constant terms
    B, n = 3, 12
    L = alphabet.total_letters
    times = np.arange(n + 1, dtype=float)
    values = np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
    for N in (1, 2, 3, 4):
        for ells in pairing_families(rng, alphabet, N):
            for gamma in PAIRING_GAMMAS:
                for steps in (n, 0):
                    batch = functional_paths(values[:, :steps + 1], gamma, ells)
                    assert batch.shape == (B, steps + 1, len(ells))
                    for b in range(B):
                        path = SamplePath(times[:steps + 1], values[b, :steps + 1], alphabet)
                        ref = functional_matrix(gamma_signature(path, gamma, N), ells)
                        assert np.all(np.abs(batch[b] - ref)
                                      <= 1e-12 * np.maximum(1.0, np.abs(ref))), \
                            (N, len(ells), gamma, steps, b)


@pytest.mark.parametrize("alphabet, steps", [
    pytest.param(alphabet, steps, id=f"alphabet{i}" + ("" if steps == "default"
                                                       else f"-{window_id(steps)}"))
    for steps in ("default", *WINDOWS) for i, alphabet in enumerate(ALPHABETS)])
def test_functional_paths_rows_equal_single_path_bits(rng, window, alphabet, steps):
    # a path's rows must depend neither on the chunk it is evaluated in nor
    # on the windows its levels are walked in
    if steps != "default":
        window(steps)
    B, n = 7, 15
    values = np.cumsum(rng.normal(size=(B, n + 1, alphabet.total_letters)), axis=1)
    for N in (1, 2, 3, 4):
        for ells, gamma in itertools.product(pairing_families(rng, alphabet, N),
                                             PAIRING_GAMMAS):
            batch = functional_paths(values, gamma, ells)
            for b in range(B):
                alone = functional_paths(values[b:b + 1], gamma, ells)[0]
                assert np.array_equal(_bits(batch[b]), _bits(alone)), (N, len(ells), gamma, b)
            for start, stop in ((0, 3), (3, 7), (5, 6)):
                chunk = functional_paths(values[start:stop], gamma, ells)
                assert np.array_equal(_bits(chunk), _bits(batch[start:stop]))


@pytest.mark.parametrize("steps", WINDOWS, ids=window_id)
def test_kernels_bits_independent_of_window(rng, window, steps):
    # each level carries its running sum and last row from one window to the
    # next, and every step is elementwise, so no bit depends on the window;
    # the last path's constant letter and falling integer letter give signed
    # zeros from level 2 up
    B, n = 3, 10
    alphabet = Alphabet(3)
    times = np.arange(n + 1, dtype=float)
    signed = np.stack([np.full(n + 1, 2.0), -times, np.sin(times)], axis=1)
    values = np.concatenate([np.cumsum(rng.normal(size=(B, n + 1, 3)), axis=1), signed[None]])
    families = {N: pairing_families(rng, alphabet, N) for N in (1, 2, 3, 4)}

    def run():
        out = []
        for gamma, N in itertools.product(PAIRING_GAMMAS, (1, 2, 3, 4)):
            for path_values in values:
                out += gamma_signature(SamplePath(times, path_values, alphabet), gamma,
                                       N).levels
            out += endpoint_signature_batch(values, gamma, N)
            out += [functional_paths(values, gamma, ells) for ells in families[N]]
        return [_bits(a) for a in out]

    default = run()
    window(steps)
    windowed = run()
    assert len(windowed) == len(default)
    for i, (got, ref) in enumerate(zip(windowed, default)):
        assert np.array_equal(got, ref), i


def test_functional_paths_constant_and_level_one_tops(rng):
    # top level 0: no step is taken; top level 1: no level below it is built
    alphabet = Alphabet(2, has_time=True)
    B, n = 4, 9
    values = np.cumsum(rng.normal(size=(B, n + 1, 3)), axis=1)
    constant = [TensorPoly(alphabet, 2, {(): -2.5}), TensorPoly.zero(alphabet, 2)]
    out = functional_paths(values, 0.5, constant)
    assert out.shape == (B, n + 1, 2)
    assert np.all(out[:, :, 0] == -2.5) and np.all(out[:, :, 1] == 0.0)
    linear = [TensorPoly(alphabet, 1, {(): 1.0, (0,): 2.0, (2,): -0.5})]
    increments = values - values[:, :1]
    expected = 1.0 + 2.0 * increments[:, :, 0] - 0.5 * increments[:, :, 2]
    for gamma in (0.0, 0.5, 1.0):
        got = functional_paths(values, gamma, linear)[:, :, 0]
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_calibration_reads_skip_the_unread_letters():
    # every calibration feature's top word ends in the driver letter 1, so
    # the folded fits read one letter at the top: heston-calib carries level
    # 2 as its pairing and the one block of letter 1 (2 columns, not 1 + L),
    # and cantor-calib ito reads one of its three letters' lifts
    for experiment, scheme, reads_of in (
            ("heston-calib", "strat", {2: [0, 1, 2], 3: [1]}),
            ("heston-calib", "ito", {2: [0, 1, 2], 3: [1]}),
            ("cantor-calib", "ito", {2: [1]})):
        config = experiments.default_config(experiment)
        plan = experiments._calibration_plans(config)[scheme]
        ell = experiments._fold(np.ones(len(plan.functionals)), plan.functionals)
        L = ell.alphabet.total_letters
        reads = signature._read_matrices(
            signature._dense([ell], ell.alphabet, ell.max_level()), L)
        assert reads[0] is None and len(reads) == max(reads_of)
        for m, letters in reads_of.items():
            assert signature._read_letters(reads[m - 1], L).tolist() == letters, \
                (experiment, scheme, m)
        if experiment == "heston-calib":
            assert reads[1].shape == (L ** 2, 2) and reads[2].shape == (L ** 3, 1)


def test_functional_paths_skip_the_terms_of_unread_letters(rng):
    # a level's step adds only the letters its read matrix reads: an
    # increment that overflows to -inf in a letter that no word reads made
    # its 0 * inf a NaN in every later row; at gamma = 0 the gamma-points
    # of level 1 are the path's own finite values, so the pairing is that
    # of the path with the unread letter held at zero
    alphabet = Alphabet(1, has_time=True)
    ell = [TensorPoly(alphabet, 3, {(0,): 0.5, (0, 0): -1.0, (0, 0, 0): 2.0})]
    values = np.cumsum(rng.normal(size=(2, 9, 2)), axis=1)
    values[:, 4, 1], values[:, 5, 1] = 1e308, -1e308
    held = values.copy()
    held[:, :, 1] = 0.0
    with np.errstate(over="ignore"):
        got = functional_paths(values, 0.0, ell)
    assert np.all(np.isfinite(got))
    assert np.array_equal(_bits(got), _bits(functional_paths(held, 0.0, ell)))


def test_functional_paths_constant_minus_zero_is_dropped():
    # TensorPoly drops exact zeros, -0.0 among them, so a pairing starts
    # from +0.0 or a nonzero constant and never from -0.0: the sign of an
    # exact zero inside a level, which skipping a letter's +-0 term can
    # flip, never reaches the output
    alphabet = Alphabet(2)
    ell = TensorPoly(alphabet, 2, {(): -0.0, (1, 1): 1.0})
    assert len(ell) == 1
    flat = np.zeros((1, 4, 2))
    out = functional_paths(flat, 0.5, [ell])
    assert np.array_equal(_bits(out), _bits(np.zeros_like(out)))


def test_functional_paths_validation(rng):
    values = rng.normal(size=(2, 5, 2))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        functional_paths(values, 0.5, [TensorPoly.basis(Alphabet(2), 1, (1,)),
                                       TensorPoly.basis(Alphabet(1, has_time=True), 1, (1,))])
    with pytest.raises(ValueError, match="letters"):
        functional_paths(values, 0.5, [TensorPoly.basis(Alphabet(3), 1, (1,))])
    with pytest.raises(ValueError, match="gamma"):
        functional_paths(values, 1.5, [TensorPoly.basis(Alphabet(2), 1, (1,))])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_path_csv_round_trip(tmp_path, rng):
    p = make_random_path(rng, 7, 2)
    target = tmp_path / "path.csv"
    write_path_csv(p, str(target), header_comment="seed=42")
    text = target.read_text()
    assert text.startswith("# seed=42\nt,x1,x2\n")
    q = read_path_csv(str(target))
    assert np.array_equal(q.times, p.times)
    assert np.array_equal(q.values, p.values)
    assert q.alphabet == Alphabet(2)


def test_sig_csv_contents():
    p = path_013()
    traj = gamma_signature(p, 0.0, 2)
    buf = io.StringIO()
    write_sig_csv(traj, buf, header_comment="h=1")
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# h=1"
    assert lines[1] == "t,word,coeff"
    # 3 grid points x (1 + 1 + 1) words
    assert len(lines) == 2 + 3 * 3
    first_rows = [line.split(",") for line in lines[2:5]]
    assert [r[1] for r in first_rows] == ["", "1", "1.1"]
    last = lines[-1].split(",")
    assert last[1] == "1.1" and float(last[2]) == 2.0
