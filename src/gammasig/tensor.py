"""Level-truncated free tensor algebra over an augmented alphabet.

This module is the one place that knows the letter and word layout.  The
alphabet carries up to three kinds of letters with fixed integer ids:

* ``0`` — the time letter (present iff ``has_time``),
* ``1 .. d`` — base path letters,
* ``d+1 .. d + d(d+1)/2`` — bracket letters ``eps(i, j)`` for ``1 <= i <= j <= d``
  in the order of :func:`bracket_pairs` (present iff ``has_brackets``).

Letter ids never shift with the flags, so an index map valid for one module is
valid for all of them.  Words are plain tuples of letter ids; the canonical
word order is graded (by length) with lexicographic comparison inside a grade,
which coincides with plain tuple comparison because letter ids are laid out in
canonical order.  A level-m signature is stored flat, one column per word of
length m in that order; :meth:`Alphabet.word_index` is a word's column.

Coefficient arithmetic follows the inputs: integer and ``fractions.Fraction``
coefficients stay exact, floats stay floats.  Algebraic identities are tested
in exact arithmetic; floating point enters only through path signatures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Alphabet",
    "TensorPoly",
    "bracket_pairs",
    "word_str",
    "enumerate_words",
    "concat",
    "pair",
    "shuffle",
    "quasi_shuffle",
    "group_inverse",
    "ito_strat_functional",
]

Word = tuple[int, ...]

#: Scalar coefficient types accepted in a TensorPoly.
Coeff = int | float | Fraction


def word_str(word: Word) -> str:
    """Render a word as dot-joined letters: ``(1, 2, 2)`` -> ``"1.2.2"``.

    The empty word renders as the empty string.
    """
    return ".".join(str(letter) for letter in word)


def bracket_pairs(d: int) -> list[tuple[int, int]]:
    """0-based base index pairs (i, j), i <= j, in the bracket letter order
    (1,1),(1,2),..,(1,d),(2,2),..,(d,d)."""
    return [(i, j) for i in range(d) for j in range(i, d)]


@dataclass(frozen=True)
class Alphabet:
    """Augmented alphabet with a fixed letter layout.

    ``d`` is the base path dimension (letters ``1..d``).  ``has_time`` adds
    letter ``0``; ``has_brackets`` adds one letter per unordered base pair
    ``(i, j)``, ``i <= j``.
    """

    d: int
    has_time: bool = False
    has_brackets: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "has_time", bool(self.has_time))
        object.__setattr__(self, "has_brackets", bool(self.has_brackets))
        if self.d < 1:
            raise ValueError(f"base dimension d must be a positive integer, got {self.d!r}")

    @property
    def n_brackets(self) -> int:
        return len(bracket_pairs(self.d)) if self.has_brackets else 0

    @property
    def total_letters(self) -> int:
        return (1 if self.has_time else 0) + self.d + self.n_brackets

    @property
    def letters(self) -> Word:
        """All letters in canonical layout order (time, base, brackets)."""
        rest = tuple(range(1, self.d + 1 + self.n_brackets))
        return (0,) + rest if self.has_time else rest

    def is_time(self, letter: int) -> bool:
        return self.has_time and letter == 0

    def is_base(self, letter: int) -> bool:
        return 1 <= letter <= self.d

    def is_bracket(self, letter: int) -> bool:
        return self.d < letter <= self.d + self.n_brackets

    def is_valid_letter(self, letter: int) -> bool:
        return self.is_time(letter) or self.is_base(letter) or self.is_bracket(letter)

    def bracket_letter(self, i: int, j: int) -> int | None:
        """Letter id of ``eps(i, j)``, or None when the bracket is absent.

        Symmetric in (i, j); absent whenever either index is not a base
        letter or the alphabet carries no brackets.
        """
        if not self.has_brackets or not (self.is_base(i) and self.is_base(j)):
            return None
        return self.d + 1 + bracket_pairs(self.d).index((min(i, j) - 1, max(i, j) - 1))

    def bracket_pair(self, letter: int) -> tuple[int, int]:
        """Base pair (i, j), i <= j, of a bracket letter."""
        if not self.is_bracket(letter):
            raise ValueError(f"letter {letter} is not a bracket letter of {self}")
        i, j = bracket_pairs(self.d)[letter - self.d - 1]
        return (i + 1, j + 1)

    def index(self, letter: int) -> int:
        """Dense position of a letter in the canonical layout (array column)."""
        if not self.is_valid_letter(letter):
            raise ValueError(f"letter {letter} is not in {self}")
        return letter if self.has_time else letter - 1

    def word_index(self, word: Word) -> int:
        """Rank of a word among the words of its length in graded-lex order:
        its column in a flat level-``len(word)`` signature array."""
        rank = 0
        for letter in word:
            rank = rank * self.total_letters + self.index(letter)
        return rank

    def validate_word(self, word: Word) -> None:
        for letter in word:
            if not self.is_valid_letter(letter):
                raise ValueError(f"word {word} contains letter {letter} not in {self}")


@lru_cache(maxsize=None)
def enumerate_words(alphabet: Alphabet, max_level: int) -> tuple[Word, ...]:
    """All words of length 0..max_level in graded-lex order.

    Count is the geometric sum (L^(max_level+1) - 1)/(L - 1) for L letters.
    (A dimension formula sometimes written with d in the denominator instead
    of L - 1 agrees with this count only for the time-extended bracket-free
    alphabet, L = d + 1; the geometric-sum count is the one used throughout.)
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    letters = alphabet.letters
    words: list[Word] = [()]
    level: list[Word] = [()]
    for _ in range(max_level):
        level = [w + (letter,) for w in level for letter in letters]
        words.extend(level)
    return tuple(words)


class TensorPoly:
    """Element of the level-truncated tensor algebra: sparse map word -> coeff.

    Canonical form: exact zeros are dropped at construction, every word obeys
    the truncation level and the alphabet.  Instances are immutable; all
    operations return new objects.
    """

    __slots__ = ("alphabet", "trunc_level", "_terms")

    def __init__(self, alphabet: Alphabet, trunc_level: int,
                 terms: Mapping[Word, Coeff] | Iterable[tuple[Word, Coeff]] = ()):
        if trunc_level < 0:
            raise ValueError("trunc_level must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Word, Coeff] = {}
        for word, coeff in items:
            word = tuple(word)
            if len(word) > trunc_level:
                raise ValueError(
                    f"word {word} exceeds truncation level {trunc_level}")
            alphabet.validate_word(word)
            if coeff == 0:
                continue
            acc = clean.get(word, 0) + coeff
            if acc == 0:
                clean.pop(word, None)
            else:
                clean[word] = acc
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "trunc_level", trunc_level)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPoly is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, trunc_level: int) -> "TensorPoly":
        return cls(alphabet, trunc_level)

    @classmethod
    def unit(cls, alphabet: Alphabet, trunc_level: int) -> "TensorPoly":
        return cls(alphabet, trunc_level, {(): 1})

    @classmethod
    def basis(cls, alphabet: Alphabet, trunc_level: int, word: Word) -> "TensorPoly":
        return cls(alphabet, trunc_level, {tuple(word): 1})

    # -- inspection -----------------------------------------------------------

    def coeff(self, word: Word) -> Coeff:
        return self._terms.get(tuple(word), 0)

    def items(self) -> Iterator[tuple[Word, Coeff]]:
        # graded-lexicographic order: by length, then by letters
        return iter(sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def max_level(self) -> int:
        """Largest word length with a nonzero coefficient (0 if zero poly)."""
        return max((len(w) for w in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "TensorPoly(0)"
        parts = []
        for word, coeff in self.items():
            name = "e()" if not word else "e(" + ",".join(map(str, word)) + ")"
            parts.append(f"{coeff}*{name}")
        return "TensorPoly(" + " + ".join(parts) + ")"

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        self._check_compatible(other)
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return TensorPoly(self.alphabet, self.trunc_level, terms)

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (-other)

    def __neg__(self) -> "TensorPoly":
        return self.scale(-1)

    def scale(self, scalar: Coeff) -> "TensorPoly":
        if scalar == 0:
            return TensorPoly(self.alphabet, self.trunc_level)
        return TensorPoly(self.alphabet, self.trunc_level,
                          {w: scalar * c for w, c in self._terms.items()})

    def __mul__(self, scalar: Coeff) -> "TensorPoly":
        return self.scale(scalar)

    def __rmul__(self, scalar: Coeff) -> "TensorPoly":
        return self.scale(scalar)

    def _check_compatible(self, other: "TensorPoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.trunc_level != other.trunc_level:
            raise ValueError(
                f"truncation level mismatch: {self.trunc_level} vs {other.trunc_level}")


# ---------------------------------------------------------------------------
# Products and pairings
# ---------------------------------------------------------------------------

def concat(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    """Graded concatenation (tensor) product, truncated at the common level."""
    a._check_compatible(b)
    n = a.trunc_level
    terms: dict[Word, Coeff] = {}
    for u, cu in a._terms.items():
        room = n - len(u)
        for v, cv in b._terms.items():
            if len(v) > room:
                continue
            w = u + v
            terms[w] = terms.get(w, 0) + cu * cv
    return TensorPoly(a.alphabet, n, terms)


def pair(ell: TensorPoly, a: TensorPoly) -> Coeff:
    """Bilinear pairing <ell, a> = sum over words of ell_I * a_I.

    Truncation levels may differ; the sum runs over the common support.
    """
    if ell.alphabet != a.alphabet:
        raise ValueError("alphabet mismatch")
    small, big = (ell._terms, a._terms) if len(ell._terms) <= len(a._terms) else (a._terms, ell._terms)
    total: Coeff = 0
    for word, coeff in small.items():
        other = big.get(word)
        if other is not None:
            total += coeff * other
    return total


@lru_cache(maxsize=None)
def _quasi_shuffle_terms(I: Word, J: Word, alphabet: Alphabet) -> tuple[tuple[Word, int], ...]:
    # Shuffle recursion plus the contraction term
    #   (e_I' qsh e_J') x eps(i_last, j_last),
    # dropped whenever the bracket letter is absent.
    if not I:
        return ((J, 1),)
    if not J:
        return ((I, 1),)
    acc: dict[Word, int] = {}
    for w, c in _quasi_shuffle_terms(I[:-1], J, alphabet):
        w2 = w + (I[-1],)
        acc[w2] = acc.get(w2, 0) + c
    for w, c in _quasi_shuffle_terms(I, J[:-1], alphabet):
        w2 = w + (J[-1],)
        acc[w2] = acc.get(w2, 0) + c
    eps = alphabet.bracket_letter(I[-1], J[-1])
    if eps is not None:
        for w, c in _quasi_shuffle_terms(I[:-1], J[:-1], alphabet):
            w2 = w + (eps,)
            acc[w2] = acc.get(w2, 0) + c
    return tuple(sorted(acc.items()))


def _infer_alphabet(letters: Iterable[int]) -> Alphabet:
    letters = set(letters)
    has_time = 0 in letters
    d = max((letter for letter in letters if letter > 0), default=1)
    return Alphabet(d=d, has_time=has_time, has_brackets=False)


def shuffle(I: Word, J: Word, alphabet: Alphabet | None = None,
            trunc_level: int | None = None) -> TensorPoly:
    """Shuffle product of two basis words: the sum over all interleavings.

    Integer coefficients, homogeneous of degree ``len(I) + len(J)``; the
    coefficient sum is ``binom(len(I)+len(J), len(I))``.  When no alphabet is
    given, the smallest bracket-free alphabet containing the letters is used.
    """
    I, J = tuple(I), tuple(J)
    if alphabet is None:
        alphabet = _infer_alphabet(I + J)
    if trunc_level is None:
        trunc_level = len(I) + len(J)
    # with no bracket letters, every contraction of the quasi-shuffle drops
    plain = Alphabet(alphabet.d, alphabet.has_time)
    return TensorPoly(alphabet, trunc_level, dict(_quasi_shuffle_terms(I, J, plain)))


def quasi_shuffle(I: Word, J: Word, alphabet: Alphabet,
                  trunc_level: int | None = None) -> TensorPoly:
    """Quasi-shuffle product: shuffle recursion plus bracket contractions.

    The contraction appends ``eps(i, j)`` for the two consumed last letters
    and is dropped whenever that bracket is absent (time or bracket letters,
    or a bracket-free alphabet); with every contraction absent the result
    equals the plain shuffle.
    """
    I, J = tuple(I), tuple(J)
    alphabet.validate_word(I)
    alphabet.validate_word(J)
    if trunc_level is None:
        trunc_level = len(I) + len(J)
    return TensorPoly(alphabet, trunc_level, dict(_quasi_shuffle_terms(I, J, alphabet)))


def group_inverse(a: TensorPoly) -> TensorPoly:
    """Inverse of a group-like element (unit scalar part) under concat.

    Computed as the truncated Neumann series sum_k (unit - a)^k, exact for
    k up to the truncation level because (unit - a) has zero scalar part.
    """
    if a.coeff(()) != 1:
        raise ValueError(
            f"group_inverse requires scalar coefficient 1, got {a.coeff(())!r}")
    unit = TensorPoly.unit(a.alphabet, a.trunc_level)
    x = unit - a
    acc = unit
    power = unit
    for _ in range(a.trunc_level):
        power = concat(power, x)
        if not power:
            break
        acc = acc + power
    return acc


@lru_cache(maxsize=None)
def _ito_strat_terms(I: Word, alphabet: Alphabet) -> tuple[tuple[Word, Coeff], ...]:
    # l^() = e_(), l^(i) = e_(i),
    # l^I = l^I' x e_{i_last} - 1/2 l^(I')' x eps(i_prev, i_last).
    if len(I) <= 1:
        return ((I, 1),)
    prev = I[:-1]
    acc: dict[Word, Coeff] = {}
    for w, c in _ito_strat_terms(prev, alphabet):
        w2 = w + (I[-1],)
        acc[w2] = acc.get(w2, 0) + c
    eps = alphabet.bracket_letter(prev[-1], I[-1])
    if eps is not None:
        for w, c in _ito_strat_terms(prev[:-1], alphabet):
            w2 = w + (eps,)
            acc[w2] = acc.get(w2, 0) - Fraction(1, 2) * c
    return tuple((w, c) for w, c in sorted(acc.items()) if c != 0)


def ito_strat_functional(I: Word, alphabet: Alphabet) -> TensorPoly:
    """Functional l^I rewriting an Ito-signature coordinate in Stratonovich terms.

    Pairing l^I against the Stratonovich signature of the bracket-augmented
    path reproduces <e_I, Ito signature> in the refinement limit.  Recursion:
    l^I = l^I' x e_{i_last} - 1/2 l^(I')' x eps(i_prev, i_last), with bracket
    terms dropped when absent; homogeneous degrees range between
    ceil(len(I)/2) and len(I).  Coefficients are exact dyadic rationals.
    """
    I = tuple(I)
    alphabet.validate_word(I)
    return TensorPoly(alphabet, max(len(I), 0), dict(_ito_strat_terms(I, alphabet)))
