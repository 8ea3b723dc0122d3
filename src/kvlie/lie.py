"""Graded free Lie algebra elements in the Lyndon basis, plus BCH.

A LieSeries is a finitely supported table from Lyndon words (with their
standard bracketing understood) to exact rationals.  The bracket and the
substitution homomorphism are computed through the word algebra and
converted back; the conversion verifies primitivity instead of trusting
the caller.  Every conversion and the bracket stay in integers: a Lie
series' stored numerators are expanded to word numerators over the same
denominator, AB - BA is formed over the product of the two denominators,
and one triangular solve returns it to the Lyndon basis.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence

from .lyndon import bracket_expansion, is_lyndon
from .words import (Alphabet, AssocSeries, NotPrimitiveError, Series, Word, _by_length,
                    _times)


def _expand(coeffs: Mapping[Word, int]) -> Dict[Word, int]:
    """Word numerators of a table of Lyndon numerators: each Lyndon word is
    replaced by the integer expansion of its standard bracketing."""
    table: Dict[Word, int] = {}
    get = table.get
    for word, c in coeffs.items():
        for w, e in bracket_expansion(word).items():
            table[w] = get(w, 0) + c * e
    return table


def _solve(coeffs: Mapping[Word, int]) -> Dict[Word, int]:
    """Lyndon numerators of a table of word numerators, by triangular solve
    against the Lyndon expansions; zero entries are ignored.

    The expansion of a Lyndon word is integral with 1 on the word itself,
    so the solve stays in integers.  Raises ``NotPrimitiveError`` at the
    lowest degree where the table is not a Lie element.
    """
    if coeffs.get(()):
        raise NotPrimitiveError(0, "series has a constant term")
    by_len: Dict[int, Dict[Word, int]] = {}
    for w, c in coeffs.items():
        if c:
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
    return table


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
    def generators(cls, alphabet: Alphabet, degree: int) -> List["LieSeries"]:
        return [cls.generator(alphabet, degree, i) for i in range(alphabet.n)]

    # -- conversions ---------------------------------------------------

    def to_assoc(self) -> AssocSeries:
        return AssocSeries._from_scaled(self.alphabet, self.degree, _expand(self._num),
                                        self._den)

    @classmethod
    def from_assoc(cls, series: AssocSeries) -> "LieSeries":
        """Triangular solve against the Lyndon expansion; checks primitivity."""
        return cls._from_scaled(series.alphabet, series.degree, _solve(series._num),
                                series._den)

    def bracket(self, other: "LieSeries") -> "LieSeries":
        """AB - BA on the word expansions, solved back to the Lyndon basis."""
        self._check_same(other)
        a, b = _expand(self._num), _expand(other._num)
        table = _times(a, _by_length(b), self.degree)
        _times(b, _by_length(a), self.degree, table, -1)
        return LieSeries._from_scaled(self.alphabet, self.degree, _solve(table),
                                      self._den * other._den)

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
def bch_xy(degree: int) -> LieSeries:
    """The Campbell-Hausdorff series ch(x, y) on two generators, built once
    per degree."""
    x, y = LieSeries.generators(Alphabet(2), degree)
    return bch(x, y)


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
