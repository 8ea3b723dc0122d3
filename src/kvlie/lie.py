"""Graded free Lie algebra elements in the Lyndon basis, plus BCH.

A LieSeries is a finitely supported table from Lyndon words (with their
standard bracketing understood) to exact rationals.  The bracket and the
substitution homomorphism are computed through the word algebra and
converted back; the conversion verifies primitivity instead of trusting
the caller.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from .lyndon import bracket_expansion, bracket_structure, is_lyndon, lyndon_basis
from .words import (_ZERO, AmbientMismatch, Alphabet, AssocSeries,
                    NotPrimitiveError, Word, _as_fraction)


class LieSeries:
    """Element of the truncated free Lie algebra on ``alphabet``."""

    __slots__ = ("alphabet", "degree", "coeffs")

    def __init__(self, alphabet: Alphabet, degree: int,
                 coeffs: Mapping[Word, Fraction] | None = None):
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
        self.alphabet = alphabet
        self.degree = degree
        table: Dict[Word, Fraction] = {}
        if coeffs:
            for word, c in coeffs.items():
                word = tuple(word)
                if len(word) > degree:
                    continue
                c = _as_fraction(c)
                if c:
                    if not is_lyndon(word):
                        raise ValueError(f"{word} is not a Lyndon word")
                    if any(i < 0 or i >= alphabet.n for i in word):
                        raise ValueError(f"word {word} outside alphabet")
                    table[word] = c
        self.coeffs = table

    @classmethod
    def _trusted(cls, alphabet: Alphabet, degree: int,
                 table: Mapping[Word, Fraction]) -> "LieSeries":
        """Wrap a table built from valid series over the same ambient.

        The keys must already be Lyndon words over the alphabet no longer
        than ``degree`` and the values Fractions; only zeros are dropped.
        """
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.degree = degree
        self.coeffs = {w: c for w, c in table.items() if c}
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int) -> "LieSeries":
        return cls(alphabet, degree, {})

    @classmethod
    def generator(cls, alphabet: Alphabet, degree: int, i: int) -> "LieSeries":
        if not 0 <= i < alphabet.n:
            raise ValueError(f"generator index {i} out of range")
        return cls(alphabet, degree, {(i,): Fraction(1)})

    @classmethod
    def generators(cls, alphabet: Alphabet, degree: int) -> List["LieSeries"]:
        return [cls.generator(alphabet, degree, i) for i in range(alphabet.n)]

    # -- plumbing -----------------------------------------------------

    def _check_same(self, other: "LieSeries"):
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise AmbientMismatch(
                f"ambient mismatch: ({self.alphabet}, N={self.degree}) vs "
                f"({other.alphabet}, N={other.degree})")

    def __eq__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.alphabet, self.degree, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "<LieSeries 0>"
        bits = []
        for word in sorted(self.coeffs, key=lambda w: (len(w), w)):
            bits.append(f"{self.coeffs[word]}*[{self.alphabet.word_name(word)}]")
        return "<LieSeries " + " + ".join(bits) + ">"

    def coefficient(self, word: Word) -> Fraction:
        return self.coeffs.get(tuple(word), Fraction(0))

    def homogeneous(self, d: int) -> "LieSeries":
        return LieSeries._trusted(
            self.alphabet, self.degree,
            {w: c for w, c in self.coeffs.items() if len(w) == d})

    def min_degree(self) -> int | None:
        return min((len(w) for w in self.coeffs), default=None)

    def truncated(self, degree: int) -> "LieSeries":
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
        return LieSeries._trusted(
            self.alphabet, degree,
            {w: c for w, c in self.coeffs.items() if len(w) <= degree})

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "LieSeries") -> "LieSeries":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) + c
        return LieSeries._trusted(self.alphabet, self.degree, table)

    def __neg__(self) -> "LieSeries":
        return LieSeries._trusted(self.alphabet, self.degree,
                                  {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "LieSeries") -> "LieSeries":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) - c
        return LieSeries._trusted(self.alphabet, self.degree, table)

    def scale(self, c) -> "LieSeries":
        c = _as_fraction(c)
        return LieSeries._trusted(self.alphabet, self.degree,
                                  {w: c * v for w, v in self.coeffs.items()})

    # -- conversions ---------------------------------------------------

    def to_assoc(self) -> AssocSeries:
        table: Dict[Word, Fraction] = {}
        get = table.get
        for word, c in self.coeffs.items():
            for w, e in bracket_expansion(word).items():
                table[w] = get(w, _ZERO) + c * e
        return AssocSeries._trusted(self.alphabet, self.degree, table)

    @classmethod
    def from_assoc(cls, series: AssocSeries) -> "LieSeries":
        """Triangular solve against the Lyndon expansion; checks primitivity."""
        if series.constant_term:
            raise NotPrimitiveError(0, "series has a constant term")
        by_len: Dict[int, Dict[Word, Fraction]] = {}
        for w, c in series.coeffs.items():
            by_len.setdefault(len(w), {})[w] = c
        table: Dict[Word, Fraction] = {}
        for d in sorted(by_len):
            remaining = by_len[d]
            while remaining:
                word = min(remaining)
                if not is_lyndon(word):
                    raise NotPrimitiveError(d)
                c = remaining.pop(word)
                table[word] = c
                for w, e in bracket_expansion(word).items():
                    if w == word:
                        continue
                    v = remaining.get(w, _ZERO) - c * e
                    if v:
                        remaining[w] = v
                    else:
                        remaining.pop(w, None)
        return cls._trusted(series.alphabet, series.degree, table)

    def bracket(self, other: "LieSeries") -> "LieSeries":
        self._check_same(other)
        return LieSeries.from_assoc(self.to_assoc().commutator(other.to_assoc()))

    def substitute(self, images: Sequence["LieSeries"]) -> "LieSeries":
        """Lie-algebra-map extension of x_i -> images[i]."""
        if len(images) != self.alphabet.n:
            raise ValueError("one image per generator required")
        for im in images:
            if im.min_degree() == 0:
                raise ValueError("substitution image has a degree-0 term")
        word_images = [im.to_assoc() for im in images]
        return LieSeries.from_assoc(self.to_assoc().substitute(word_images))


def bch(a: LieSeries, b: LieSeries) -> LieSeries:
    """log(e^a e^b) in the truncated word algebra, rewritten in the Lyndon basis."""
    a._check_same(b)
    product = a.to_assoc().exp() * b.to_assoc().exp()
    return LieSeries.from_assoc(product.log())


@lru_cache(maxsize=None)
def _bch_xy(degree: int) -> LieSeries:
    alphabet = Alphabet(2)
    x, y = LieSeries.generators(alphabet, degree)
    return bch(x, y)


def bch_xy(degree: int) -> LieSeries:
    """The Campbell-Hausdorff series ch(x, y) on two generators."""
    return _bch_xy(degree)


def bernoulli_numbers(n_max: int) -> List[Fraction]:
    """b_0..b_n by the standard recurrence (b_1 = -1/2; irrelevant here)."""
    from math import comb
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * b[k]
        b.append(-acc / (m + 1))
    return b


def j_coefficients(degree: int) -> Dict[int, Fraction]:
    """Coefficients c_n = b_n/(n*n!) of tr(x^n) for 2 <= n <= degree.

    The Bernoulli convention is pinned by c_2 = 1/24.
    """
    if degree < 2:
        raise ValueError("need degree >= 2")
    from math import factorial
    b = bernoulli_numbers(degree)
    return {n: b[n] / (n * factorial(n)) for n in range(2, degree + 1)}
