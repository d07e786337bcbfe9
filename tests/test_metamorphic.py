"""Bit-exact metamorphic properties under power-of-two scaling.

Multiplying by 2**k is exact in floating point unless a value overflows or
becomes subnormal, and every kernel below only adds, multiplies, divides and
compares.  So, whatever order it sums in, a kernel that is homogeneous in
exact arithmetic is homogeneous bit for bit:

* the graded dilation: level m of the signature of 2**k X is 2**(k m)
  times level m of the signature of X, so pairing 2**k X with a functional
  l equals pairing X with delta l, the functional whose word w has the
  coefficient 2**(k |w|) l_w;
* a cumulative sum of 2**k times the increments is 2**k times their
  cumulative sum;
* the ridge solution is linear in the target: y * 2**k gives beta * 2**k,
  and the lasso solution is too when the penalty scales with it:
  (y, alpha) * 2**k gives beta * 2**k.

Relabelling the letters moves signature coordinates and changes no value:
each coordinate's recursion reads only the letters of its word, so level m
of the path with columns permuted by pi is level m of the path itself with
each of its m letter axes permuted by pi, bit for bit.

The drawn values stay between 2**-8 and 2**8 in magnitude (or are signed
zeros) and the levels stop at 4, far from overflow and from subnormals.
"""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammasig import (
    Alphabet,
    SamplePath,
    TensorPoly,
    endpoint_signature_batch,
    enumerate_words,
    functional_paths,
    gamma_signature,
    lasso_fit,
    ridge_fit,
)
from gammasig.signature import cumsum0

GAMMAS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
POWERS = st.integers(-3, 5)


def _values(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Values of magnitude in [2**-8, 2**8) with random signs, and about one
    in eight a signed zero."""
    values = rng.choice([-1.0, 1.0], size=shape) * 2.0 ** rng.uniform(-8, 8, size=shape)
    zeros = rng.random(shape) < 0.125
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


@st.composite
def _paths(draw) -> tuple[np.ndarray, int]:
    """A batch (B, n+1, L) of paths and a truncation level N."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 3)))
    return _values(rng, shape), draw(st.integers(1, 4))


@st.composite
def _sample_paths(draw) -> tuple[SamplePath, int]:
    """A path of n >= 0 steps over L >= 1 letters on a strictly increasing
    grid, and a truncation level N."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, letters = draw(st.integers(0, 7)), draw(st.integers(1, 3))
    times = np.cumsum(2.0 ** rng.uniform(-4, 0, size=n + 1))
    return (SamplePath(times, _values(rng, (n + 1, letters)), Alphabet(letters)),
            draw(st.integers(1, 4)))


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(_paths(), GAMMAS, POWERS)
def test_endpoint_signature_dilation_is_bit_exact(paths, gamma, k):
    values, N = paths
    levels = endpoint_signature_batch(values, gamma, N)
    scaled = endpoint_signature_batch(2.0 ** k * values, gamma, N)
    assert len(scaled) == N
    for m, (level, got) in enumerate(zip(levels, scaled), start=1):
        assert np.array_equal(_bits(got), _bits(2.0 ** (k * m) * level)), m


@settings(max_examples=40, deadline=None)
@given(_paths(), GAMMAS, POWERS, st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_functional_paths_dilation_is_bit_exact(paths, gamma, k, seed, count):
    values, N = paths
    alphabet = Alphabet(values.shape[2])
    words = enumerate_words(alphabet, N)
    rng = np.random.default_rng(seed)
    functionals, dilated = [], []
    for _ in range(count):
        # a sparse functional, like a lasso fit: about half its words are zero
        coeffs = {w: c for w, c in zip(words, _values(rng, (len(words),)))
                  if rng.random() < 0.5}
        functionals.append(TensorPoly(alphabet, N, coeffs))
        dilated.append(TensorPoly(alphabet, N, {w: 2.0 ** (k * len(w)) * c
                                                for w, c in coeffs.items()}))
    got = functional_paths(2.0 ** k * values, gamma, functionals)
    expected = functional_paths(values, gamma, dilated)
    assert np.array_equal(_bits(got), _bits(expected))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 6), POWERS,
       st.sampled_from([1e-6, 1e-3, 1.0]))
def test_ridge_response_scaling_is_bit_exact(seed, n, p, k, alpha):
    rng = np.random.default_rng(seed)
    X, y = _values(rng, (n, p)), _values(rng, (n,))
    fit = ridge_fit(X, y, alpha)
    scaled = ridge_fit(X, 2.0 ** k * y, alpha)
    assert np.array_equal(_bits(scaled.coeffs), _bits(2.0 ** k * fit.coeffs))


@settings(max_examples=40, deadline=None)
@given(_sample_paths(), GAMMAS, POWERS)
def test_gamma_signature_dilation_is_bit_exact(sample, gamma, k):
    path, N = sample
    levels = gamma_signature(path, gamma, N).levels
    scaled = gamma_signature(SamplePath(path.times, 2.0 ** k * path.values, path.alphabet),
                             gamma, N).levels
    for m, (level, got) in enumerate(zip(levels, scaled), start=1):
        assert np.array_equal(_bits(got), _bits(2.0 ** (k * m) * level)), m


@settings(max_examples=40, deadline=None)
@given(_sample_paths(), GAMMAS, st.randoms(use_true_random=False))
def test_gamma_signature_letter_permutation_is_bit_exact(sample, gamma, random):
    path, N = sample
    letters = path.dim
    perm = np.array(random.sample(range(letters), letters))
    levels = gamma_signature(path, gamma, N).levels
    permuted = gamma_signature(SamplePath(path.times, path.values[:, perm], path.alphabet),
                               gamma, N).levels
    rows = len(path.times)
    for m, (level, got) in enumerate(zip(levels, permuted), start=1):
        # word (w_1..w_m) of the permuted path is word (pi(w_1)..pi(w_m))
        expected = level.reshape((rows,) + (letters,) * m)[(slice(None),) + np.ix_(*[perm] * m)]
        assert np.array_equal(_bits(got), _bits(expected.reshape(rows, -1))), m


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 9), st.integers(1, 3), POWERS)
def test_cumsum0_dilation_is_bit_exact(seed, n, width, k):
    increments = _values(np.random.default_rng(seed), (n, width, 2))
    got = cumsum0(2.0 ** k * increments)
    assert got.shape == (n + 1, width, 2)
    assert np.array_equal(_bits(got), _bits(2.0 ** k * cumsum0(increments)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 6), POWERS,
       st.sampled_from([1e-6, 1e-3, 1.0]))
def test_lasso_response_and_penalty_scaling_is_bit_exact(seed, n, p, k, alpha):
    rng = np.random.default_rng(seed)
    X, y = _values(rng, (n, p)), _values(rng, (n,))
    fit = lasso_fit(X, y, alpha)
    # the identity is stated for the optimum: a capped fit stops wherever
    assume(fit.diagnostics["converged"])
    scaled = lasso_fit(X, 2.0 ** k * y, 2.0 ** k * alpha)
    assert scaled.diagnostics["converged"]
    assert np.array_equal(_bits(scaled.coeffs), _bits(2.0 ** k * fit.coeffs))
