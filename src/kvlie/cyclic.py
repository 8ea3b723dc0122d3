"""Cyclic words: the trace projection, last-letter decomposition, and duf.

Necklace keys are the lexicographically least rotation of a nonempty word,
so equality of cyclic series is plain table equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping

from .lie import LieSeries, bch_xy, j_coefficients
from .words import _ZERO, Alphabet, AmbientMismatch, AssocSeries, Word, _as_fraction


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation of a nonempty word."""
    if not word:
        raise ValueError("the empty word has no necklace")
    doubled = word + word
    n = len(word)
    return min(doubled[i:i + n] for i in range(n))


class CycSeries:
    """Element of cy_n: rational combination of necklaces, truncated."""

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
                    if any(i < 0 or i >= alphabet.n for i in word):
                        raise ValueError(f"necklace {word} outside alphabet")
                    if word != canonical_rotation(word):
                        raise ValueError(f"{word} is not rotation-minimal")
                    table[word] = c
        self.coeffs = table

    @classmethod
    def _trusted(cls, alphabet: Alphabet, degree: int,
                 table: Mapping[Word, Fraction]) -> "CycSeries":
        """Wrap a table keyed by necklaces no longer than ``degree``.

        The keys must already be rotation-minimal and the values
        Fractions; only zeros are dropped.
        """
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.degree = degree
        self.coeffs = {w: c for w, c in table.items() if c}
        return self

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int) -> "CycSeries":
        return cls(alphabet, degree, {})

    def _check_same(self, other: "CycSeries"):
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise AmbientMismatch("cyclic series over different ambients")

    def __eq__(self, other):
        if not isinstance(other, CycSeries):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.alphabet, self.degree, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "<CycSeries 0>"
        bits = []
        for word in sorted(self.coeffs, key=lambda w: (len(w), w)):
            bits.append(f"{self.coeffs[word]}*tr({self.alphabet.word_name(word)})")
        return "<CycSeries " + " + ".join(bits) + ">"

    def coefficient(self, word: Word) -> Fraction:
        return self.coeffs.get(canonical_rotation(tuple(word)), Fraction(0))

    def homogeneous(self, d: int) -> "CycSeries":
        return CycSeries._trusted(
            self.alphabet, self.degree,
            {w: c for w, c in self.coeffs.items() if len(w) == d})

    def truncated(self, degree: int) -> "CycSeries":
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
        return CycSeries._trusted(
            self.alphabet, degree,
            {w: c for w, c in self.coeffs.items() if len(w) <= degree})

    def __add__(self, other: "CycSeries") -> "CycSeries":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) + c
        return CycSeries._trusted(self.alphabet, self.degree, table)

    def __neg__(self) -> "CycSeries":
        return CycSeries._trusted(self.alphabet, self.degree,
                                  {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "CycSeries") -> "CycSeries":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) - c
        return CycSeries._trusted(self.alphabet, self.degree, table)

    def scale(self, c) -> "CycSeries":
        c = _as_fraction(c)
        return CycSeries._trusted(self.alphabet, self.degree,
                                  {w: c * v for w, v in self.coeffs.items()})

    def representative(self) -> AssocSeries:
        """One word per necklace; tr_project of it gives the series back."""
        return AssocSeries._trusted(self.alphabet, self.degree, self.coeffs)


def tr_project(series: AssocSeries) -> CycSeries:
    """Natural projection Ass+ -> cy; kills the span of commutators."""
    if series.constant_term:
        raise ValueError("tr is only defined on series without degree-0 term")
    table: Dict[Word, Fraction] = {}
    get = table.get
    for word, c in series.coeffs.items():
        key = canonical_rotation(word)
        table[key] = get(key, _ZERO) + c
    return CycSeries._trusted(series.alphabet, series.degree, table)


def partial_decompose(series: AssocSeries, i: int) -> AssocSeries:
    """The factor d_i(a) of the unique decomposition a = sum_i d_i(a) x_i.

    Collects the prefixes of the words of ``a`` ending in x_i; lands in the
    unital algebra (the unit appears when x_i itself is a word of ``a``).
    """
    if series.constant_term:
        raise ValueError("decomposition is only defined without degree-0 term")
    if not 0 <= i < series.alphabet.n:
        raise ValueError(f"generator index {i} out of range")
    table: Dict[Word, Fraction] = {}
    for word, c in series.coeffs.items():
        if word[-1] == i:
            table[word[:-1]] = c
    return AssocSeries._trusted(series.alphabet, series.degree, table)


def tr_power(z: LieSeries, k: int) -> CycSeries:
    """tr(z^k) for a Lie series z, computed in the word algebra."""
    zw = z.to_assoc()
    return tr_project(zw.power(k))


def j_of(z: LieSeries) -> CycSeries:
    """The Duflo j-series evaluated on a Lie series, truncated."""
    coeffs = j_coefficients(max(z.degree, 2))
    out = CycSeries.zero(z.alphabet, z.degree)
    zw = z.to_assoc()
    power = zw
    for k in range(2, z.degree + 1):
        power = power * zw
        if not power:
            break
        c = coeffs[k]
        if c:
            out = out + tr_project(power).scale(c)
    return out


def duflo_series(degree: int) -> CycSeries:
    """duf(x,y) = (j(x) + j(y) - j(ch(x,y))) / 2 on two letters."""
    if degree < 2:
        raise ValueError("need degree >= 2")
    alphabet = Alphabet(2)
    x = LieSeries.generator(alphabet, degree, 0)
    y = LieSeries.generator(alphabet, degree, 1)
    ch = bch_xy(degree)
    return (j_of(x) + j_of(y) - j_of(ch)).scale(Fraction(1, 2))


def h_subspace_vector(k: int, degree: int) -> CycSeries:
    """tr(x^k) + tr(y^k) - tr(ch(x,y)^k), one spanning vector per k >= 2."""
    alphabet = Alphabet(2)
    x = LieSeries.generator(alphabet, degree, 0)
    y = LieSeries.generator(alphabet, degree, 1)
    ch = bch_xy(degree)
    return tr_power(x, k) + tr_power(y, k) - tr_power(ch, k)
