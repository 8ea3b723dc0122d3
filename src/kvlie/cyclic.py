"""Cyclic words: the trace projection, last-letter decomposition, and duf.

Necklace keys are the lexicographically least rotation of a nonempty word,
so equality of cyclic series is plain table equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .lie import LieSeries, bch_xy, j_coefficients
from .words import Alphabet, AssocSeries, Series, Word, _lincomb, _powers


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation of a nonempty word."""
    if not word:
        raise ValueError("the empty word has no necklace")
    doubled = word + word
    n = len(word)
    return min(doubled[i:i + n] for i in range(n))


class CycSeries(Series):
    """Element of cy_n: rational combination of necklaces, truncated."""

    __slots__ = ()

    @staticmethod
    def _check_key(word: Word) -> None:
        if word != canonical_rotation(word):
            raise ValueError(f"{word} is not rotation-minimal")

    _key = staticmethod(canonical_rotation)

    def _term(self, word: Word) -> str:
        return f"tr({self.alphabet.word_name(word)})"

    def representative(self) -> AssocSeries:
        """One word per necklace; tr_project of it gives the series back."""
        return AssocSeries._from_scaled(self.alphabet, self.degree, self._num, self._den)


def tr_project(series: AssocSeries) -> CycSeries:
    """Natural projection Ass+ -> cy; kills the span of commutators."""
    if series.constant_term:
        raise ValueError("tr is only defined on series without degree-0 term")
    table: Dict[Word, int] = {}
    get = table.get
    for word, n in series._num.items():
        key = canonical_rotation(word)
        table[key] = get(key, 0) + n
    return CycSeries._from_scaled(series.alphabet, series.degree, table, series._den)


def partial_decompose(series: AssocSeries, i: int) -> AssocSeries:
    """The factor d_i(a) of the unique decomposition a = sum_i d_i(a) x_i.

    Collects the prefixes of the words of ``a`` ending in x_i; lands in the
    unital algebra (the unit appears when x_i itself is a word of ``a``).
    """
    if series.constant_term:
        raise ValueError("decomposition is only defined without degree-0 term")
    if not 0 <= i < series.alphabet.n:
        raise ValueError(f"generator index {i} out of range")
    table = {word[:-1]: n for word, n in series._num.items() if word[-1] == i}
    return AssocSeries._from_scaled(series.alphabet, series.degree, table, series._den)


def tr_power(z: LieSeries, k: int) -> CycSeries:
    """tr(z^k) for a Lie series z, computed in the word algebra."""
    zw = z.to_assoc()
    return tr_project(zw.power(k))


def j_of(z: LieSeries) -> CycSeries:
    """The Duflo j-series sum_k c_k tr(z^k) on a Lie series, truncated; the
    trace is taken once, of the word sum."""
    zw = z.to_assoc()
    coeffs = j_coefficients(max(z.degree, 2)).values()  # c_2, c_3, ...
    return tr_project(_lincomb(zip(coeffs, _powers(lambda p: p * zw, zw * zw)),
                               AssocSeries.zero(z.alphabet, z.degree)))


def duflo_series(degree: int) -> CycSeries:
    """duf(x,y) = (j(x) + j(y) - j(ch(x,y))) / 2 on two letters."""
    if degree < 2:
        raise ValueError("need degree >= 2")
    x, y = LieSeries.generators(Alphabet(2), degree)
    ch = bch_xy(degree)
    return (j_of(x) + j_of(y) - j_of(ch)).scale(Fraction(1, 2))


def h_subspace_vector(k: int, degree: int) -> CycSeries:
    """tr(x^k) + tr(y^k) - tr(ch(x,y)^k), one spanning vector per k >= 2."""
    x, y = LieSeries.generators(Alphabet(2), degree)
    ch = bch_xy(degree)
    return tr_power(x, k) + tr_power(y, k) - tr_power(ch, k)
