"""Truncated free associative algebra with exact rational coefficients.

Words are tuples of 0-based generator indices.  Every series carries its
alphabet and a hard truncation order; all products silently drop terms of
total degree above the truncation, and mixing kinds or ambients is an
error, never a coercion.

Word, Lie and cyclic series share one base class, ``Series``, and are
validated once: ``Series.__init__`` is the public constructor of every
kind, and each kind adds only its own key check.  Arithmetic on valid
series builds its result through the private ``_trusted`` constructor,
which only drops zeros.

Coefficients are stored as reduced ``Fraction``s, and every public method
takes and returns them.  The exact kernels (word products, substitution,
and in ``lie`` and ``derivations`` the Lyndon conversions, the Leibniz
action and both brackets) do not compute with Fractions, though:
``_scaled`` turns their operands into integer numerators over one common
denominator, the inner loops multiply and add plain ints, and
``Series._from_scaled`` reduces each output term to a Fraction once.
Besides those two and the integer product ``_times``, the helpers that
work in the scaled format are ``lie._expand`` (Lyndon to word numerators)
and ``lie._solve`` (word to Lyndon numerators), and in ``derivations``
the integer word view of a ``TDer`` (``TDer._word_view``) and its
Leibniz action ``_act``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

Word = Tuple[int, ...]

_DEFAULT_NAMES = ("x", "y", "z", "w")

# Largest alphabet accepted.  Names are built eagerly, and every exact
# computation grows with the number of letters, so a larger n can only come
# from a malformed input.
MAX_LETTERS = 64


class AmbientMismatch(ValueError):
    """Raised when two series disagree on kind, alphabet or truncation order."""


class NotPrimitiveError(ValueError):
    """Raised when a word series expected to be a Lie element is not one."""

    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"series is not primitive at degree {degree}")


@dataclass(frozen=True)
class Alphabet:
    """Generators x_1..x_n, all of degree one."""

    n: int
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n <= MAX_LETTERS:
            raise ValueError(f"alphabet needs 1 to {MAX_LETTERS} generators, not {self.n}")
        if not self.names:
            if self.n <= len(_DEFAULT_NAMES):
                names = _DEFAULT_NAMES[: self.n]
            else:
                names = tuple(f"x{i + 1}" for i in range(self.n))
            object.__setattr__(self, "names", names)
        if len(self.names) != self.n or len(set(self.names)) != self.n:
            raise ValueError("generator names must be distinct, one per generator")

    def word_name(self, word: Word) -> str:
        return "".join(self.names[i] for i in word)

    def parse_word(self, text: str) -> Word:
        """Inverse of word_name; greedy longest-name match."""
        by_len = sorted(range(self.n), key=lambda i: -len(self.names[i]))
        out = []
        pos = 0
        while pos < len(text):
            for i in by_len:
                name = self.names[i]
                if text.startswith(name, pos):
                    out.append(i)
                    pos += len(name)
                    break
            else:
                raise ValueError(f"cannot parse word {text!r} over {self.names}")
        return tuple(out)


_ZERO = Fraction(0)


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("floating point coefficients are not allowed here")
    return Fraction(c)


def _scaled(*tables: Mapping[Word, Fraction]) -> Tuple[List[Dict[Word, int]], int]:
    """Integer numerators of Fraction tables over the lcm of all their
    denominators: returns the numerator tables, in order, and that lcm."""
    denom = 1
    for table in tables:
        for c in table.values():
            if denom % c.denominator:
                denom = lcm(denom, c.denominator)
    return [{w: c.numerator * (denom // c.denominator) for w, c in table.items()}
            for table in tables], denom


def _by_length(table: Mapping[Word, int]) -> List[Tuple[int, list]]:
    """The terms of a table grouped by word length, shortest first."""
    groups: Dict[int, list] = {}
    for w, c in table.items():
        groups.setdefault(len(w), []).append((w, c))
    return sorted(groups.items())


def _times(left: Mapping[Word, int], right: List[Tuple[int, list]], degree: int,
           table: Dict[Word, int] | None = None, sign: int = 1) -> Dict[Word, int]:
    """Product of an integer table and the ``_by_length`` groups of another,
    dropping words longer than ``degree``.  With ``table`` given, ``sign``
    times the product is added into it, and it is returned."""
    if table is None:
        table = {}
    get = table.get
    for w1, c1 in left.items():
        c1 *= sign
        room = degree - len(w1)
        for length, group in right:
            if length > room:
                break
            for w2, c2 in group:
                w = w1 + w2
                table[w] = get(w, 0) + c1 * c2
    return table


class Series:
    """Finitely supported key -> rational table, truncated at ``degree``.

    The linear structure shared by word, Lie and cyclic series.  A kind of
    series names its keys through three hooks: ``_check_key`` refuses a
    key in the public constructor, ``_key`` normalises the word given to
    ``coefficient``, and ``_term`` renders one key in the repr.  Series of
    different kinds never compare equal, even with the same table.
    """

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
                        raise ValueError(f"word {word} outside alphabet")
                    self._check_key(word)
                    table[word] = c
        self.coeffs = table

    @classmethod
    def _trusted(cls, alphabet: Alphabet, degree: int,
                 table: Mapping[Word, Fraction]) -> "Series":
        """Wrap a table built from valid series over the same ambient.

        The keys must already be in-alphabet keys of this kind no longer
        than ``degree`` and the values Fractions; only zeros are dropped.
        """
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.degree = degree
        self.coeffs = {w: c for w, c in table.items() if c}
        return self

    @classmethod
    def _from_scaled(cls, alphabet: Alphabet, degree: int,
                     numerators: Mapping[Word, int], denom: int) -> "Series":
        """Like ``_trusted`` for a table of integer numerators over ``denom``,
        as ``_scaled`` makes them: each nonzero one becomes a reduced Fraction."""
        self = cls._trusted(alphabet, degree, {})
        self.coeffs = {w: Fraction(n, denom) for w, n in numerators.items() if n}
        return self

    # -- key hooks ----------------------------------------------------

    def _check_key(self, word: Word) -> None:
        """Raise ValueError if the public constructor must refuse ``word``."""

    @staticmethod
    def _key(word: Word) -> Word:
        """The table key that ``coefficient`` reads for ``word``."""
        return word

    def _term(self, word: Word) -> str:
        return self.alphabet.word_name(word)

    # -- plumbing -----------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int) -> "Series":
        return cls(alphabet, degree, {})

    def _check_same(self, other: "Series"):
        if type(other) is not type(self):
            raise AmbientMismatch(f"kind mismatch: {type(self).__name__} vs "
                                  f"{type(other).__name__}")
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise AmbientMismatch(
                f"ambient mismatch: ({self.alphabet}, N={self.degree}) vs "
                f"({other.alphabet}, N={other.degree})")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.alphabet, self.degree, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        name = type(self).__name__
        if not self.coeffs:
            return f"<{name} 0>"
        bits = [f"{self.coeffs[w]}*{self._term(w)}"
                for w in sorted(self.coeffs, key=lambda w: (len(w), w))]
        return f"<{name} " + " + ".join(bits) + ">"

    def coefficient(self, word: Word) -> Fraction:
        return self.coeffs.get(self._key(tuple(word)), _ZERO)

    def homogeneous(self, d: int) -> "Series":
        return self._trusted(
            self.alphabet, self.degree,
            {w: c for w, c in self.coeffs.items() if len(w) == d})

    def min_degree(self) -> int | None:
        return min((len(w) for w in self.coeffs), default=None)

    def truncated(self, degree: int) -> "Series":
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
        return self._trusted(
            self.alphabet, degree,
            {w: c for w, c in self.coeffs.items() if len(w) <= degree})

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) + c
        return self._trusted(self.alphabet, self.degree, table)

    def __neg__(self) -> "Series":
        return self._trusted(self.alphabet, self.degree,
                             {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "Series") -> "Series":
        self._check_same(other)
        table = dict(self.coeffs)
        get = table.get
        for w, c in other.coeffs.items():
            table[w] = get(w, _ZERO) - c
        return self._trusted(self.alphabet, self.degree, table)

    def scale(self, c) -> "Series":
        c = _as_fraction(c)
        return self._trusted(self.alphabet, self.degree,
                             {w: c * v for w, v in self.coeffs.items()})


class AssocSeries(Series):
    """Series keyed by words: the truncated free associative algebra.

    ``unital`` records whether the empty word is permitted (the unit of the
    full algebra) or excluded (augmentation ideal).
    """

    __slots__ = ("unital",)

    def __init__(self, alphabet: Alphabet, degree: int,
                 coeffs: Mapping[Word, Fraction] | None = None,
                 unital: bool = True):
        self.unital = unital
        super().__init__(alphabet, degree, coeffs)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, degree: int,
                 table: Mapping[Word, Fraction]) -> "AssocSeries":
        """Like ``Series._trusted``; the result is unital, like every
        arithmetic result."""
        self = super()._trusted(alphabet, degree, table)
        self.unital = True
        return self

    def _check_key(self, word: Word) -> None:
        if not word and not self.unital:
            raise ValueError("augmentation-ideal series cannot carry the empty word")

    def _term(self, word: Word) -> str:
        return self.alphabet.word_name(word) or "1"

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, alphabet: Alphabet, degree: int) -> "AssocSeries":
        return cls(alphabet, degree, {(): Fraction(1)})

    @classmethod
    def generator(cls, alphabet: Alphabet, degree: int, i: int) -> "AssocSeries":
        if not 0 <= i < alphabet.n:
            raise ValueError(f"generator index {i} out of range")
        return cls(alphabet, degree, {(i,): Fraction(1)})

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    def truncated(self, degree: int) -> "AssocSeries":
        out = super().truncated(degree)
        out.unital = self.unital
        return out

    # -- products -----------------------------------------------------

    def __mul__(self, other: "AssocSeries") -> "AssocSeries":
        self._check_same(other)
        (left, right), denom = _scaled(self.coeffs, other.coeffs)
        return AssocSeries._from_scaled(self.alphabet, self.degree,
                                        _times(left, _by_length(right), self.degree),
                                        denom * denom)

    def commutator(self, other: "AssocSeries") -> "AssocSeries":
        return self * other - other * self

    def power(self, k: int) -> "AssocSeries":
        result = AssocSeries.one(self.alphabet, self.degree)
        for _ in range(k):
            result = result * self
        return result

    def exp(self) -> "AssocSeries":
        """exp of a series with no constant term."""
        if self.constant_term:
            raise ValueError("exp requires vanishing constant term")
        result = AssocSeries.one(self.alphabet, self.degree)
        term = AssocSeries.one(self.alphabet, self.degree)
        for k in range(1, self.degree + 1):
            term = (term * self).scale(Fraction(1, k))
            if not term:
                break
            result = result + term
        return result

    def log(self) -> "AssocSeries":
        """log of a series with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log requires constant term 1")
        h = self - AssocSeries.one(self.alphabet, self.degree)
        result = AssocSeries.zero(self.alphabet, self.degree)
        term = AssocSeries.one(self.alphabet, self.degree)
        for k in range(1, self.degree + 1):
            term = term * h
            if not term:
                break
            result = result + term.scale(Fraction((-1) ** (k + 1), k))
        return result

    def substitute(self, images: Sequence["AssocSeries"]) -> "AssocSeries":
        """Algebra-map extension of x_i -> images[i] (no constant terms)."""
        if len(images) != self.alphabet.n:
            raise ValueError("one image per generator required")
        target = images[0]
        for im in images:
            target._check_same(im)
            if im.constant_term:
                raise ValueError("substitution image has a degree-0 term")
        scaled, denom = _scaled(*(im.coeffs for im in images))
        factors = [_by_length(im) for im in scaled]
        degree = target.degree
        # prefix -> (integer table of its image, the denominator under it)
        cache: Dict[Word, Tuple[Dict[Word, int], int]] = {(): ({(): 1}, 1)}
        for word in sorted(self.coeffs, key=len):
            if word not in cache:
                # walk up to the nearest cached prefix, filling the gaps
                # so sibling words can reuse them
                k = len(word) - 1
                while k > 0 and word[:k] not in cache:
                    k -= 1
                acc, acc_denom = cache[word[:k]]
                for pos in range(k, len(word)):
                    acc = _times(acc, factors[word[pos]], degree)
                    acc_denom *= denom
                    cache[word[:pos + 1]] = (acc, acc_denom)
        (coeffs,), outer = _scaled(self.coeffs)
        # each prefix sits over a power of denom, so the largest is their lcm
        common = max((cache[word][1] for word in coeffs), default=1)
        table: Dict[Word, int] = {}
        get = table.get
        for word, c in coeffs.items():
            image, image_denom = cache[word]
            c *= common // image_denom
            for w, e in image.items():
                table[w] = get(w, 0) + c * e
        return AssocSeries._from_scaled(target.alphabet, degree, table, outer * common)
