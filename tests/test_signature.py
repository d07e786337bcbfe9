"""Tests for discrete gamma-signatures of sampled paths.

The oracle below evaluates the defining per-step recursion in plain Python
floats, independent of both the vectorized level sweep and the per-step
concatenation product in the library.
"""
from __future__ import annotations

import io
import itertools
import math

import numpy as np
import pytest

from gammasig import (
    Alphabet,
    SamplePath,
    TensorPoly,
    augment_path,
    concat,
    endpoint_signature_batch,
    enumerate_words,
    feature_matrix,
    functional_matrix,
    gamma_signature,
    gamma_signature_chen,
    pair,
    quadratic_variation,
    read_path_csv,
    sig_increment,
    write_path_csv,
    write_sig_csv,
)
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
    with pytest.raises(ValueError):
        SamplePath([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]], a, names=("x",))


def test_sample_path_accessors():
    a = Alphabet(2, has_time=True)
    times = np.array([0.0, 0.5, 1.0])
    values = np.column_stack([times, [0.0, 1.0, 3.0], [1.0, 1.0, 0.0]])
    p = SamplePath(times, values, a, names=("t", "u", "v"))
    assert np.array_equal(p.column(0), times)
    assert np.array_equal(p.column(1), [0.0, 1.0, 3.0])
    assert np.array_equal(p.by_name("v"), [1.0, 1.0, 0.0])
    with pytest.raises(KeyError):
        p.by_name("w")
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
    assert quadratic_variation(p, 0.0).final[0, 0] == 5.0
    assert quadratic_variation(p, 0.5).final[0, 0] == 0.0
    assert quadratic_variation(p, 1.0).final[0, 0] == -5.0
    qv = quadratic_variation(p, 0.0)
    assert np.array_equal(qv.at(0), np.zeros((1, 1)))
    assert qv.at(1)[0, 0] == 1.0


def test_quadratic_variation_matrix_properties(rng):
    p = make_random_path(rng, 30, 3)
    qv0 = quadratic_variation(p, 0.0)
    for k in range(31):
        m = qv0.at(k)
        assert np.array_equal(m, m.T)
    diag = np.stack([np.diag(qv0.at(k)) for k in range(31)])
    assert np.all(np.diff(diag, axis=0) >= 0)
    qv_g = quadratic_variation(p, 0.25)
    assert np.allclose(qv_g.qv, 0.5 * qv0.qv, rtol=0, atol=1e-15)
    assert np.all(quadratic_variation(p, 0.5).qv == 0.0)
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
    assert full.names == ("t", "x1", "x2", "[1,1]", "[1,2]", "[2,2]")
    assert full.alphabet == Alphabet(2, has_time=True, has_brackets=True)
    assert np.array_equal(full.column(0), p.times)
    qv = quadratic_variation(p, 0.0)
    assert np.array_equal(full.column(3), qv.qv[:, 0, 0])
    assert np.array_equal(full.column(4), qv.qv[:, 0, 1])
    assert np.array_equal(full.column(5), qv.qv[:, 1, 1])


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
        qv = quadratic_variation(p, 0.0).qv
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
# Signature increments (Chen)
# ---------------------------------------------------------------------------


def test_sig_increment_edges(rng):
    p = make_random_path(rng, 10, 2)
    traj = gamma_signature(p, 0.0, 3)
    same = sig_increment(traj, 4, 4)
    assert same.coeff(()) == pytest.approx(1.0)
    for w in enumerate_words(p.alphabet, 3):
        if w:
            assert abs(same.coeff(w)) <= 1e-12
    got = sig_increment(traj, 0, 7)
    want = traj.sig_at(7)
    for w in enumerate_words(p.alphabet, 3):
        assert abs(got.coeff(w) - want.coeff(w)) <= 1e-12
    with pytest.raises(ValueError):
        sig_increment(traj, 5, 2)


def test_sig_increment_matches_sliced_recompute(rng):
    p = make_random_path(rng, 10, 2)
    traj = gamma_signature(p, 0.0, 3)
    inc = sig_increment(traj, 3, 8)
    sliced = gamma_signature(p.sub_path(3, 8), 0.0, 3).end
    for w in enumerate_words(p.alphabet, 3):
        assert abs(inc.coeff(w) - sliced.coeff(w)) <= 1e-12 * max(1.0, abs(sliced.coeff(w)))


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


def test_feature_matrix_examples(rng):
    p = path_013()
    traj = gamma_signature(p, 0.0, 2)
    row = feature_matrix([traj], [(), (1,), (1, 1)], at_end=True)
    assert np.allclose(row, [[1.0, 3.0, 2.0]])
    stacked = feature_matrix([traj], [(), (1,)], at_end=False)
    assert stacked.shape == (3, 2)
    assert np.allclose(stacked[:, 0], 1.0)
    assert np.allclose(stacked[:, 1], [0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        feature_matrix([traj], [(1, 1, 1)], at_end=True)
    with pytest.raises(ValueError):
        feature_matrix([], [()], at_end=True)


def test_feature_matrix_level1_columns_are_increments(rng):
    trajs = [gamma_signature(make_random_path(rng, 12, 2), 0.5, 2)
             for _ in range(4)]
    ends = feature_matrix(trajs, [(1,), (2,)], at_end=True)
    for i, traj in enumerate(trajs):
        assert np.allclose(ends[i], traj.levels[0][-1])


def test_functional_matrix_matches_pairing(rng):
    p = make_random_path(rng, 15, 2)
    traj = gamma_signature(p, 0.0, 3)
    a = p.alphabet
    ells = [
        TensorPoly(a, 3, {(1,): 2.0, (2, 1): -0.5}),
        TensorPoly(a, 3, {(): 1.0, (1, 1, 2): 3.0}),
    ]
    ends = functional_matrix([traj], ells, at_end=True)
    for j, ell in enumerate(ells):
        assert ends[0, j] == pytest.approx(float(pair(ell, traj.end)), rel=1e-12)
    stacked = functional_matrix([traj], ells, at_end=False)
    assert stacked.shape == (16, 2)
    for k in (0, 7, 15):
        for j, ell in enumerate(ells):
            assert stacked[k, j] == pytest.approx(
                float(pair(ell, traj.sig_at(k))), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        functional_matrix([traj], [TensorPoly.basis(Alphabet(3), 2, (1,))],
                          at_end=True)


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


def test_endpoint_batch_lower_levels_bitwise_equal_per_path(rng):
    # levels below the top take the same level step as gamma_signature, so
    # they agree bit for bit; only the top level is contracted differently
    B, n, L = 4, 15, 2
    values = np.cumsum(rng.normal(size=(B, n + 1, L)), axis=1)
    times = np.arange(n + 1, dtype=float)
    for N in (2, 3, 4):
        for gamma in (0.0, 0.25, 0.5, 1.0):
            ends = endpoint_signature_batch(values, gamma, N)
            for b in range(B):
                traj = gamma_signature(SamplePath(times, values[b], Alphabet(L)),
                                       gamma, N - 1)
                for m in range(N - 1):
                    assert np.array_equal(ends[m][b], traj.levels[m][-1])


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
