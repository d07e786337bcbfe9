"""Exact-arithmetic tests for the word algebra.

The oracles at the top are deliberately independent of the implementation:
the shuffle oracle enumerates interleavings directly, and the quasi-shuffle
and conversion-functional oracles recurse on the *first* letter where the
library recurses on the last.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasig import (
    Alphabet,
    TensorPoly,
    bracket_pairs,
    concat,
    enumerate_words,
    group_inverse,
    ito_strat_functional,
    pair,
    quasi_shuffle,
    shuffle,
    word_str,
)

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_shuffle_counts(I: tuple, J: tuple) -> dict:
    """Multiplicity of each interleaving, by direct position enumeration."""
    m, n = len(I), len(J)
    counts: dict[tuple, int] = {}
    for positions in itertools.combinations(range(m + n), m):
        chosen = set(positions)
        word = []
        it_i, it_j = iter(I), iter(J)
        for p in range(m + n):
            word.append(next(it_i) if p in chosen else next(it_j))
        w = tuple(word)
        counts[w] = counts.get(w, 0) + 1
    return counts


def oracle_quasi_shuffle_counts(I: tuple, J: tuple, alphabet: Alphabet) -> dict:
    """Front-letter recursion: aI * bJ = a(I*bJ) + b(aI*J) + eps(a,b)(I*J)."""
    if not I:
        return {J: 1}
    if not J:
        return {I: 1}
    acc: dict[tuple, int] = {}

    def add(head: int, sub: dict) -> None:
        for w, c in sub.items():
            key = (head,) + w
            acc[key] = acc.get(key, 0) + c

    add(I[0], oracle_quasi_shuffle_counts(I[1:], J, alphabet))
    add(J[0], oracle_quasi_shuffle_counts(I, J[1:], alphabet))
    eps = alphabet.bracket_letter(I[0], J[0])
    if eps is not None:
        add(eps, oracle_quasi_shuffle_counts(I[1:], J[1:], alphabet))
    return acc


def oracle_conversion_terms(I: tuple, alphabet: Alphabet) -> dict:
    """Front-letter recursion for the scheme-conversion functional:

        l^I = e_{i_1} x l^{I[1:]} - 1/2 eps(i_1, i_2) x l^{I[2:]},

    equivalent to the last-letter recursion because both generate the sum
    over tilings of the index positions by single letters and adjacent
    bracket pairs with weight (-1/2) per pair.
    """
    if len(I) <= 1:
        return {I: Fraction(1)}
    acc: dict[tuple, Fraction] = {}
    for w, c in oracle_conversion_terms(I[1:], alphabet).items():
        key = (I[0],) + w
        acc[key] = acc.get(key, Fraction(0)) + c
    eps = alphabet.bracket_letter(I[0], I[1])
    if eps is not None:
        for w, c in oracle_conversion_terms(I[2:], alphabet).items():
            key = (eps,) + w
            acc[key] = acc.get(key, Fraction(0)) - Fraction(1, 2) * c
    return {w: c for w, c in acc.items() if c != 0}


def poly_counts(poly: TensorPoly) -> dict:
    return dict(poly.items())


# ---------------------------------------------------------------------------
# Words and alphabets
# ---------------------------------------------------------------------------


def read_word(text: str) -> tuple:
    """Test-local inverse of word_str: the labels of a fit's JSON name their
    words without ambiguity."""
    return tuple(int(part) for part in text.split(".")) if text else ()


def test_word_str_round_trip():
    for word in [(), (1,), (0, 2, 1), (3, 3, 3, 0), (12, 0)]:
        assert read_word(word_str(word)) == word
    assert word_str(()) == ""
    assert word_str((1, 2, 2)) == "1.2.2"


@given(st.lists(st.integers(min_value=0, max_value=12), max_size=6))
def test_word_str_round_trip_property(letters):
    word = tuple(letters)
    assert read_word(word_str(word)) == word


def test_graded_lex_key_orders_by_length_then_letters():
    # TensorPoly.items lists its words in graded-lexicographic order
    words = [(2,), (), (1, 1), (1,), (0, 2), (1, 0)]
    poly = TensorPoly(Alphabet(2, has_time=True), 2, {word: 1 for word in words})
    assert [word for word, _ in poly.items()] == [(), (1,), (2,), (0, 2), (1, 0), (1, 1)]


def test_alphabet_letter_counts():
    assert Alphabet(2).total_letters == 2
    assert Alphabet(2, has_time=True).total_letters == 3
    assert Alphabet(2, has_time=True, has_brackets=True).total_letters == 6
    assert Alphabet(3, has_time=True, has_brackets=True).total_letters == 10
    d = 4
    a = Alphabet(d, has_time=True, has_brackets=True)
    assert a.total_letters == 1 + d + d * (d + 1) // 2


def test_alphabet_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        Alphabet(0)


def test_alphabet_letter_layout():
    a = Alphabet(2, has_time=True, has_brackets=True)
    assert a.letters == (0, 1, 2, 3, 4, 5)
    assert a.is_time(0) and not a.is_time(1)
    assert a.is_base(1) and a.is_base(2) and not a.is_base(0) and not a.is_base(3)
    assert a.is_bracket(3) and a.is_bracket(5) and not a.is_bracket(2)
    assert [a.index(letter) for letter in a.letters] == list(range(6))
    b = Alphabet(2)  # no time: base letters sit at the front
    assert b.letters == (1, 2)
    assert b.index(1) == 0 and b.index(2) == 1
    with pytest.raises(ValueError):
        b.index(0)


def test_bracket_letter_symmetric_and_complete():
    a = Alphabet(3, has_brackets=True)
    seen = set()
    for i in range(1, 4):
        for j in range(1, 4):
            letter = a.bracket_letter(i, j)
            assert letter == a.bracket_letter(j, i)
            assert a.is_bracket(letter)
            seen.add(letter)
            assert a.bracket_pair(letter) == (min(i, j), max(i, j))
    assert seen == {4, 5, 6, 7, 8, 9}
    # absent cases: time index, bracket index, bracket-free alphabet
    assert a.bracket_letter(0, 1) is None
    assert a.bracket_letter(1, 4) is None
    assert Alphabet(3).bracket_letter(1, 2) is None
    # bracket letters follow bracket_pairs, in sorted order
    for d in (1, 2, 3, 4):
        b = Alphabet(d, has_brackets=True)
        pairs = bracket_pairs(d)
        assert len(pairs) == b.n_brackets == d * (d + 1) // 2
        assert pairs == sorted(pairs)
        for offset, (i, j) in enumerate(pairs):
            assert b.bracket_letter(i + 1, j + 1) == d + 1 + offset


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("has_time", [False, True])
@pytest.mark.parametrize("has_brackets", [False, True])
def test_word_rank_is_position_within_level(d, has_time, has_brackets):
    # the flat level-m column of a word is its rank among the words of
    # length m in enumerate_words
    a = Alphabet(d, has_time=has_time, has_brackets=has_brackets)
    words = enumerate_words(a, 3)
    for m in range(1, 4):
        level = [w for w in words if len(w) == m]
        assert len(level) == a.total_letters ** m
        assert [a.word_index(w) for w in level] == list(range(len(level)))
    assert a.word_index(()) == 0


def test_enumerate_words_counts_and_order():
    one = Alphabet(1)
    assert enumerate_words(one, 3) == ((), (1,), (1, 1), (1, 1, 1))
    assert len(enumerate_words(Alphabet(3), 2)) == 1 + 3 + 9
    assert len(enumerate_words(Alphabet(2, has_time=True, has_brackets=True), 2)) \
        == 1 + 6 + 36
    words = enumerate_words(Alphabet(2, has_time=True), 3)
    assert list(words) == sorted(words, key=lambda word: (len(word), word))
    assert len(set(words)) == len(words)
    with pytest.raises(ValueError):
        enumerate_words(one, -1)


# ---------------------------------------------------------------------------
# TensorPoly
# ---------------------------------------------------------------------------


def test_tensorpoly_canonical_form():
    a = Alphabet(2)
    p = TensorPoly(a, 2, {(1,): 1, (2,): 0, (1, 2): -3})
    assert p.coeff((2,)) == 0 and len(p) == 2
    assert (p - p) == TensorPoly.zero(a, 2)
    assert not (p - p)
    q = TensorPoly(a, 2, [((1,), 2), ((1,), -2), ((2,), 5)])
    assert q == TensorPoly(a, 2, {(2,): 5})
    with pytest.raises(ValueError):
        TensorPoly(a, 1, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        TensorPoly(a, 2, {(7,): 1.0})
    with pytest.raises(AttributeError):
        p.trunc_level = 3


def test_tensorpoly_linear_ops_and_parts():
    a = Alphabet(2)
    p = TensorPoly(a, 3, {(): 1, (1,): 2, (1, 2): -1})
    assert (2 * p).coeff((1,)) == 4
    assert (p * Fraction(1, 2)).coeff((1, 2)) == Fraction(-1, 2)
    assert (-p).coeff(()) == -1
    assert p.max_level() == 2
    assert p.scale(0) == TensorPoly.zero(a, 3)


def test_pair_examples():
    a = Alphabet(2)
    x = TensorPoly(a, 2, {(): 7, (1, 2): 1, (2, 1): 3})
    assert pair(TensorPoly.basis(a, 2, ()), x) == 7
    assert pair(TensorPoly.basis(a, 2, (1, 2)), x) == 1
    ell = TensorPoly(a, 1, {(1,): 2, (2,): -1})
    v = TensorPoly(a, 1, {(1,): 1, (2,): 1})
    assert pair(ell, v) == 1
    # levels may differ; support beyond the common one is ignored
    assert pair(TensorPoly.basis(a, 5, (1,) * 5), x) == 0
    with pytest.raises(ValueError):
        pair(ell, TensorPoly.basis(Alphabet(3), 1, (1,)))


# ---------------------------------------------------------------------------
# Concatenation
# ---------------------------------------------------------------------------


def test_concat_unrolled_example():
    a = Alphabet(2)
    one_plus_e1 = TensorPoly(a, 2, {(): 1, (1,): 1})
    one_plus_e2 = TensorPoly(a, 2, {(): 1, (2,): 1})
    assert concat(one_plus_e1, one_plus_e2) == TensorPoly(
        a, 2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1})


def test_concat_unit_and_truncation():
    a = Alphabet(2)
    unit = TensorPoly.unit(a, 2)
    p = TensorPoly(a, 2, {(): 2, (1,): -1, (2, 2): 3})
    assert concat(unit, p) == p and concat(p, unit) == p
    # words that would exceed the level are dropped
    e11 = TensorPoly.basis(a, 2, (1, 1))
    assert concat(e11, e11) == TensorPoly.zero(a, 2)
    with pytest.raises(ValueError):
        concat(p, TensorPoly.unit(a, 3))


def test_concat_level2_inverse_identity(rng):
    a = Alphabet(2)
    for _ in range(10):
        lvl1 = {(i,): int(rng.integers(-5, 6)) for i in (1, 2)}
        lvl2 = {(i, j): int(rng.integers(-5, 6)) for i in (1, 2) for j in (1, 2)}
        x = TensorPoly(a, 2, {(): 1, **lvl1, **lvl2})
        av = TensorPoly(a, 2, lvl1)
        bv = TensorPoly(a, 2, lvl2)
        inv = TensorPoly.unit(a, 2) - av + (concat(av, av) - bv)
        assert concat(x, inv) == TensorPoly.unit(a, 2)


def test_concat_associative_exact(rng):
    for alphabet in (Alphabet(2), Alphabet(2, has_time=True),
                     Alphabet(1, has_time=True, has_brackets=True)):
        words = enumerate_words(alphabet, 4)
        for _ in range(15):
            polys = []
            for _ in range(3):
                terms = {}
                for _ in range(5):
                    w = words[rng.integers(len(words))]
                    terms[w] = terms.get(w, 0) + int(rng.integers(-4, 5))
                polys.append(TensorPoly(alphabet, 4, terms))
            p, q, r = polys
            assert concat(concat(p, q), r) == concat(p, concat(q, r))


# ---------------------------------------------------------------------------
# Shuffle
# ---------------------------------------------------------------------------


def test_shuffle_examples():
    assert poly_counts(shuffle((1,), (2,))) == {(1, 2): 1, (2, 1): 1}
    assert poly_counts(shuffle((), (1, 2))) == {(1, 2): 1}
    assert poly_counts(shuffle((1, 2), ())) == {(1, 2): 1}
    assert poly_counts(shuffle((1, 2), (3,))) == {
        (1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}


def test_shuffle_matches_interleaving_oracle_all_pairs_degree5():
    a = Alphabet(2)
    words = enumerate_words(a, 5)
    pairs = [(I, J) for I in words for J in words if len(I) + len(J) <= 5]
    assert len(pairs) > 300
    for I, J in pairs:
        assert poly_counts(shuffle(I, J, a)) == oracle_shuffle_counts(I, J)


def test_shuffle_on_bracket_alphabet_has_no_contractions():
    # shuffle runs the quasi-shuffle recursion on a bracket-free alphabet,
    # so bracket letters interleave like any other letter
    a = Alphabet(2, has_time=True, has_brackets=True)
    words = enumerate_words(a, 2)
    for I in words:
        for J in words:
            assert poly_counts(shuffle(I, J, a)) == oracle_shuffle_counts(I, J)


def test_shuffle_commutative_and_counting(rng):
    a = Alphabet(3)
    words = enumerate_words(a, 3)
    for _ in range(200):
        I = words[rng.integers(len(words))]
        J = words[rng.integers(len(words))]
        left = shuffle(I, J, a)
        assert left == shuffle(J, I, a)
        total = sum(c for _, c in left.items())
        assert total == math.comb(len(I) + len(J), len(I))
        assert all(len(w) == len(I) + len(J) for w, _ in left.items())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2), max_size=3), st.lists(st.integers(1, 2), max_size=3))
def test_shuffle_oracle_property(Is, Js):
    I, J = tuple(Is), tuple(Js)
    assert poly_counts(shuffle(I, J, Alphabet(2))) == oracle_shuffle_counts(I, J)


# ---------------------------------------------------------------------------
# Quasi-shuffle
# ---------------------------------------------------------------------------

BR2 = Alphabet(2, has_time=True, has_brackets=True)


def test_quasi_shuffle_examples():
    e12 = BR2.bracket_letter(1, 2)
    e11 = BR2.bracket_letter(1, 1)
    assert poly_counts(quasi_shuffle((1,), (2,), BR2)) == {
        (1, 2): 1, (2, 1): 1, (e12,): 1}
    assert poly_counts(quasi_shuffle((0,), (1,), BR2)) == {(0, 1): 1, (1, 0): 1}
    assert poly_counts(quasi_shuffle((1,), (1,), BR2)) == {(1, 1): 2, (e11,): 1}
    assert poly_counts(quasi_shuffle((), (1, 2), BR2)) == {(1, 2): 1}


def test_quasi_shuffle_matches_front_recursion_oracle():
    small = Alphabet(1, has_time=True, has_brackets=True)  # letters 0, 1, 2
    words = enumerate_words(small, 3)
    for I in words:
        for J in words:
            if len(I) + len(J) > 4:
                continue
            got = poly_counts(quasi_shuffle(I, J, small))
            assert got == oracle_quasi_shuffle_counts(I, J, small), (I, J)


def test_quasi_shuffle_oracle_spot_checks_wider_alphabet(rng):
    words = enumerate_words(BR2, 2)
    for _ in range(150):
        I = words[rng.integers(len(words))]
        J = words[rng.integers(len(words))]
        got = poly_counts(quasi_shuffle(I, J, BR2))
        assert got == oracle_quasi_shuffle_counts(I, J, BR2)
        assert quasi_shuffle(I, J, BR2) == quasi_shuffle(J, I, BR2)


def test_quasi_shuffle_reduces_to_shuffle_without_brackets():
    plain = Alphabet(2, has_time=True)
    words = enumerate_words(plain, 3)
    for I in words:
        for J in words:
            if 0 < len(I) + len(J) <= 4:
                assert quasi_shuffle(I, J, plain) == shuffle(I, J, plain)
    # bracketed alphabet but letter pairs with no present bracket
    for I, J in [((0,), (0, 0)), ((0, 0), (0,))]:
        assert quasi_shuffle(I, J, BR2) == shuffle(I, J, BR2)


def test_quasi_shuffle_degrees():
    # contraction terms sit between max(|I|,|J|) and |I|+|J|
    p = quasi_shuffle((1, 1), (1, 1), BR2)
    degrees = {len(w) for w, _ in p.items()}
    assert degrees == {2, 3, 4}
    top = {w: c for w, c in p.items() if len(w) == 4}
    assert top == dict(shuffle((1, 1), (1, 1), BR2).items())


# ---------------------------------------------------------------------------
# Group inverse
# ---------------------------------------------------------------------------


def test_group_inverse_unit_and_formula():
    a = Alphabet(2)
    unit = TensorPoly.unit(a, 2)
    assert group_inverse(unit) == unit
    av = TensorPoly(a, 2, {(1,): 3, (2,): -2})
    bv = TensorPoly(a, 2, {(1, 1): 1, (2, 1): 4})
    x = unit + av + bv
    expected = unit - av + (concat(av, av) - bv)
    assert group_inverse(x) == expected


def test_group_inverse_round_trip_exact(rng):
    a = Alphabet(2, has_time=True)
    words = enumerate_words(a, 4)
    unit = TensorPoly.unit(a, 4)
    for _ in range(12):
        terms = {(): Fraction(1)}
        for _ in range(6):
            w = words[rng.integers(1, len(words))]
            terms[w] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        x = TensorPoly(a, 4, terms)
        inv = group_inverse(x)
        assert concat(x, inv) == unit
        assert concat(inv, x) == unit


def test_group_inverse_requires_unit_scalar():
    a = Alphabet(1)
    with pytest.raises(ValueError):
        group_inverse(TensorPoly(a, 2, {(): 2, (1,): 1}))
    with pytest.raises(ValueError):
        group_inverse(TensorPoly(a, 2, {(1,): 1}))


# ---------------------------------------------------------------------------
# Conversion functional
# ---------------------------------------------------------------------------

BR3 = Alphabet(3, has_time=True, has_brackets=True)


def test_conversion_functional_base_cases():
    assert ito_strat_functional((), BR3) == TensorPoly.basis(BR3, 0, ())
    for letter in BR3.letters:
        assert ito_strat_functional((letter,), BR3) == \
            TensorPoly.basis(BR3, 1, (letter,))


def test_conversion_functional_hand_cases():
    e12 = BR3.bracket_letter(1, 2)
    e23 = BR3.bracket_letter(2, 3)
    got = ito_strat_functional((1, 2), BR3)
    assert got == TensorPoly(BR3, 2, {(1, 2): 1, (e12,): Fraction(-1, 2)})
    got3 = ito_strat_functional((1, 2, 3), BR3)
    assert got3 == TensorPoly(BR3, 3, {
        (1, 2, 3): 1,
        (e12, 3): Fraction(-1, 2),
        (1, e23): Fraction(-1, 2),
    })
    # coefficients are exact dyadic rationals
    assert got3.coeff((e12, 3)) == Fraction(-1, 2)


def test_conversion_functional_matches_front_recursion_oracle():
    small = Alphabet(1, has_time=True, has_brackets=True)
    for n in range(6):
        for I in itertools.product((0, 1), repeat=n):
            got = dict(ito_strat_functional(I, small).items())
            assert got == oracle_conversion_terms(I, small), I


def test_conversion_functional_time_only_words():
    for n in range(5):
        I = (0,) * n
        assert ito_strat_functional(I, BR3) == TensorPoly.basis(BR3, max(n, 0), I)


def test_conversion_functional_degree_bounds(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        I = tuple(int(rng.integers(1, 4)) for _ in range(n))
        ell = ito_strat_functional(I, BR3)
        degrees = {len(w) for w, _ in ell.items()}
        assert max(degrees) == n
        assert min(degrees) >= math.ceil(n / 2)
        assert ell.coeff(I) == 1
