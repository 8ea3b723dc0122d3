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
from typing import Dict, List, Sequence

from .lyndon import bracket_expansion, bracket_structure, is_lyndon, lyndon_basis
from .words import Alphabet, AssocSeries, NotPrimitiveError, Series, Word, _scaled


class LieSeries(Series):
    """Element of the truncated free Lie algebra on ``alphabet``."""

    __slots__ = ()

    @staticmethod
    def _check_key(word: Word) -> None:
        if not is_lyndon(word):
            raise ValueError(f"{word} is not a Lyndon word")

    def _term(self, word: Word) -> str:
        return f"[{self.alphabet.word_name(word)}]"

    # -- constructors -------------------------------------------------

    @classmethod
    def generator(cls, alphabet: Alphabet, degree: int, i: int) -> "LieSeries":
        if not 0 <= i < alphabet.n:
            raise ValueError(f"generator index {i} out of range")
        return cls(alphabet, degree, {(i,): Fraction(1)})

    @classmethod
    def generators(cls, alphabet: Alphabet, degree: int) -> List["LieSeries"]:
        return [cls.generator(alphabet, degree, i) for i in range(alphabet.n)]

    # -- conversions ---------------------------------------------------

    def to_assoc(self) -> AssocSeries:
        (coeffs,), denom = _scaled(self.coeffs)
        table: Dict[Word, int] = {}
        get = table.get
        for word, c in coeffs.items():
            for w, e in bracket_expansion(word).items():
                table[w] = get(w, 0) + c * e
        return AssocSeries._from_scaled(self.alphabet, self.degree, table, denom)

    @classmethod
    def from_assoc(cls, series: AssocSeries) -> "LieSeries":
        """Triangular solve against the Lyndon expansion; checks primitivity.

        The expansion of a Lyndon word is integral with 1 on the word
        itself, so the solve stays in the integer numerators of ``series``.
        """
        if series.constant_term:
            raise NotPrimitiveError(0, "series has a constant term")
        (coeffs,), denom = _scaled(series.coeffs)
        by_len: Dict[int, Dict[Word, int]] = {}
        for w, c in coeffs.items():
            by_len.setdefault(len(w), {})[w] = c
        table: Dict[Word, int] = {}
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
                    v = remaining.get(w, 0) - c * e
                    if v:
                        remaining[w] = v
                    else:
                        remaining.pop(w, None)
        return cls._from_scaled(series.alphabet, series.degree, table, denom)

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
