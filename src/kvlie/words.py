"""Truncated free associative algebra with exact rational coefficients.

Words are tuples of 0-based generator indices.  Every series carries its
alphabet and a hard truncation order; all products silently drop terms of
total degree above the truncation, and mixing kinds or ambients is an
error, never a coercion.

Word, Lie and cyclic series share one base class, ``Series``, and are
validated once: ``Series.__init__`` is the public constructor of every
kind, and Lie and cyclic series add only their own key check.
Arithmetic on valid series builds its result through the private
``_from_scaled`` constructor, which only puts the table in canonical
form.

A series stores integer numerators over one denominator: ``_num`` maps
each word to a nonzero int, ``_den`` is a positive int, and the two share
no common factor (the zero series has ``_den == 1``).  So equal series
store equal tables, and every exact kernel (sums, scaling, word products,
substitution, and in ``lie``, ``cyclic``, ``derivations`` and
``automorphisms`` the Lyndon conversions, the trace, the Leibniz action
and both brackets) runs on plain ints.  ``_scaled`` brings several series
over the lcm of their denominators.  ``Fraction``s are built only at the
boundary: ``coefficient`` returns one, and ``coeffs`` is a Fraction
view of the table, built on first read and kept, that the serializer and
the repr read.

Every truncated power series sum_k c_k T^k(s) of the package (exp and log
here; Ad, the group exponential and the J cocycle in ``automorphisms``; j
in ``cyclic``) is one fold: ``_lincomb`` over the ``_powers`` of a
degree-raising step T, which stop at the truncation whatever T is.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, gcd, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

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


def _as_fraction(c) -> Fraction | int:
    """An exact rational: ints and Fractions pass through, floats are refused."""
    if isinstance(c, float):
        raise TypeError("floating point coefficients are not allowed here")
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _scaled(*series: "Series") -> Tuple[List[Mapping[Word, int]], int]:
    """Integer numerators of series over the lcm of their denominators:
    returns the numerator tables, in order, and that lcm.  A table already
    over the lcm is the stored one, so callers only read them."""
    denom = lcm(*(s._den for s in series))
    return [s._num if s._den == denom
            else {w: n * (denom // s._den) for w, n in s._num.items()}
            for s in series], denom


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


def _lincomb(terms: Iterable[Tuple[Fraction, object]], zero):
    """The sum of c * u over the (c, u) terms, skipping those where c or u
    is zero; ``zero`` when every term is skipped."""
    out = None
    for c, u in terms:
        if c and u:
            u = u if c == 1 else u.scale(c)
            out = u if out is None else out + u
    return zero if out is None else out


def _powers(step: Callable, start) -> Iterator:
    """start, step(start), ...: stops before the first zero and after
    start.degree + 1 terms, all a degree-raising step can give; each step
    runs only when its term is asked for."""
    term = start
    for k in range(start.degree + 1):
        if k:
            term = step(term)
        if not term:
            return
        yield term


class Series:
    """Finitely supported key -> rational table, truncated at ``degree``.

    The linear structure shared by word, Lie and cyclic series.  A kind of
    series names its keys through three hooks: ``_check_key`` refuses a
    key in the public constructor, ``_key`` normalises the word given to
    ``coefficient``, and ``_term`` renders one key in the repr.  Series of
    different kinds never compare equal, even with the same table.
    """

    __slots__ = ("alphabet", "degree", "_num", "_den", "_coeffs")

    def __init__(self, alphabet: Alphabet, degree: int,
                 coeffs: Mapping[Word, Fraction] | None = None):
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
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
        denom = lcm(*(c.denominator for c in table.values()))
        self._store(alphabet, degree,
                    {w: c.numerator * (denom // c.denominator) for w, c in table.items()},
                    denom)

    def _store(self, alphabet: Alphabet, degree: int,
               numerators: Dict[Word, int], denom: int) -> None:
        """Hold ``numerators`` over ``denom > 0`` in canonical form: zeros
        dropped and the common factor divided out.  Takes ownership of the
        table when it is already canonical."""
        self.alphabet, self.degree, self._coeffs = alphabet, degree, None
        if 0 in numerators.values():
            numerators = {w: n for w, n in numerators.items() if n}
        g = gcd(denom, *numerators.values())
        if g != 1:
            numerators = {w: n // g for w, n in numerators.items()}
            denom //= g
        self._num, self._den = numerators, denom

    @classmethod
    def _from_scaled(cls, alphabet: Alphabet, degree: int,
                     numerators: Dict[Word, int], denom: int) -> "Series":
        """Wrap integer numerators over ``denom`` built from valid series over
        the same ambient: the keys must already be in-alphabet keys of this
        kind no longer than ``degree``; the table is only put in canonical form."""
        self = object.__new__(cls)
        self._store(alphabet, degree, numerators, denom)
        return self

    @property
    def coeffs(self) -> Dict[Word, Fraction]:
        """The table as reduced Fractions, built on first read and kept;
        callers only read it."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = {w: Fraction(n, den) for w, n in self._num.items()}
        return self._coeffs

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

    @classmethod
    def generator(cls, alphabet: Alphabet, degree: int, i: int) -> "Series":
        """The single key (i,) with coefficient 1: x_i, [x_i] or tr(x_i)."""
        if not 0 <= i < alphabet.n:
            raise ValueError(f"generator index {i} out of range")
        return cls(alphabet, degree, {(i,): 1})

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
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.alphabet, self.degree, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        name = type(self).__name__
        if not self._num:
            return f"<{name} 0>"
        bits = [f"{self.coeffs[w]}*{self._term(w)}"
                for w in sorted(self._num, key=lambda w: (len(w), w))]
        return f"<{name} " + " + ".join(bits) + ">"

    def coefficient(self, word: Word) -> Fraction:
        n = self._num.get(self._key(tuple(word)))
        return Fraction(n, self._den) if n else _ZERO

    def homogeneous(self, d: int) -> "Series":
        return self._from_scaled(
            self.alphabet, self.degree,
            {w: n for w, n in self._num.items() if len(w) == d}, self._den)

    def min_degree(self) -> int | None:
        return min(map(len, self._num), default=None)

    def truncated(self, degree: int) -> "Series":
        if degree < 1:
            raise ValueError("truncation order must be >= 1")
        return self._from_scaled(
            self.alphabet, degree,
            {w: n for w, n in self._num.items() if len(w) <= degree}, self._den)

    # -- linear structure ---------------------------------------------

    def _combine(self, other: "Series", sign: int) -> "Series":
        """self + sign * other, summed over their common denominator."""
        self._check_same(other)
        (a, b), denom = _scaled(self, other)
        table = dict(a)
        get = table.get
        for w, n in b.items():
            table[w] = get(w, 0) + sign * n
        return self._from_scaled(self.alphabet, self.degree, table, denom)

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1)

    def __sub__(self, other: "Series") -> "Series":
        return self._combine(other, -1)

    def __neg__(self) -> "Series":
        return self._from_scaled(self.alphabet, self.degree,
                                 {w: -n for w, n in self._num.items()}, self._den)

    def scale(self, c) -> "Series":
        c = _as_fraction(c)
        p = c.numerator
        return self._from_scaled(self.alphabet, self.degree,
                                 {w: p * n for w, n in self._num.items()},
                                 self._den * c.denominator)


class AssocSeries(Series):
    """Series keyed by words: the truncated free associative algebra,
    whose unit is the empty word."""

    __slots__ = ()

    def _term(self, word: Word) -> str:
        return self.alphabet.word_name(word) or "1"

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, alphabet: Alphabet, degree: int) -> "AssocSeries":
        return cls(alphabet, degree, {(): Fraction(1)})

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(())

    # -- products -----------------------------------------------------

    def __mul__(self, other: "AssocSeries") -> "AssocSeries":
        self._check_same(other)
        return AssocSeries._from_scaled(
            self.alphabet, self.degree,
            _times(self._num, _by_length(other._num), self.degree),
            self._den * other._den)

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
        one = AssocSeries.one(self.alphabet, self.degree)
        return _lincomb(zip((Fraction(1, factorial(k)) for k in count()),
                            _powers(lambda t: t * self, one)),
                        AssocSeries.zero(self.alphabet, self.degree))

    def log(self) -> "AssocSeries":
        """log of a series with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log requires constant term 1")
        h = self - AssocSeries.one(self.alphabet, self.degree)
        return _lincomb(zip((Fraction((-1) ** (k + 1), k) for k in count(1)),
                            _powers(lambda t: t * h, h)),
                        AssocSeries.zero(self.alphabet, self.degree))

    def substitute(self, images: Sequence["AssocSeries"]) -> "AssocSeries":
        """Algebra-map extension of x_i -> images[i] (no constant terms)."""
        if len(images) != self.alphabet.n:
            raise ValueError("one image per generator required")
        target = images[0]
        for im in images:
            target._check_same(im)
            if im.constant_term:
                raise ValueError("substitution image has a degree-0 term")
        scaled, denom = _scaled(*images)
        factors = [_by_length(im) for im in scaled]
        degree = target.degree
        # prefix -> (integer table of its image, the denominator under it)
        cache: Dict[Word, Tuple[Dict[Word, int], int]] = {(): ({(): 1}, 1)}
        for word in sorted(self._num, key=len):
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
        # each prefix sits over a power of denom, so the largest is their lcm
        common = max((cache[word][1] for word in self._num), default=1)
        table: Dict[Word, int] = {}
        get = table.get
        for word, c in self._num.items():
            image, image_denom = cache[word]
            c *= common // image_denom
            for w, e in image.items():
                table[w] = get(w, 0) + c * e
        return AssocSeries._from_scaled(target.alphabet, degree, table,
                                        self._den * common)
