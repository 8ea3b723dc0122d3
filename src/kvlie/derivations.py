"""Tangential derivations of the free Lie algebra.

A tangential derivation is stored as the tuple (a_1, ..., a_n) acting on
generators by x_i -> [x_i, a_i].  The normalization that a_k carries no
linear x_k term is projected away at construction; with it, tuples
correspond one-to-one to their actions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cyclic import CycSeries, partial_decompose, tr_project
from .lie import LieSeries, _expand, _solve
from .lyndon import bracket_structure, lyndon_basis
from .words import (Alphabet, AmbientMismatch, AssocSeries, Word, _by_length, _lincomb,
                    _scaled, _times)


class TDer:
    """Tangential derivation u = (a_1, ..., a_n).

    Immutable.  On first use it builds its integer word view, kept for the
    life of the object: the word expansions A_k of its components and the
    Leibniz images x_k A_k - A_k x_k, as integer numerators over one common
    denominator, grouped by word length.  The action and the bracket run on
    that view.
    """

    __slots__ = ("alphabet", "degree", "components", "_images", "_words")

    def __init__(self, components: Sequence[LieSeries]):
        components = tuple(components)
        if not components:
            raise ValueError("a tangential derivation needs components")
        first = components[0]
        for c in components:
            first._check_same(c)
        if len(components) != first.alphabet.n:
            raise ValueError("need one component per generator")
        normalized = []
        for k, a in enumerate(components):
            bad = a.coefficient((k,))
            if bad:
                a = a - LieSeries.generator(a.alphabet, a.degree, k).scale(bad)
            normalized.append(a)
        self._hold(normalized)

    def _hold(self, components: Sequence[LieSeries]) -> None:
        self.alphabet, self.degree = components[0].alphabet, components[0].degree
        self.components = tuple(components)
        self._images = self._words = None

    @classmethod
    def _trusted(cls, components: Sequence[LieSeries]) -> "TDer":
        """Wrap normalized components over one ambient without re-checking
        them: sums, scalings, degree cuts and brackets of normalized
        derivations are normalized."""
        self = object.__new__(cls)
        self._hold(components)
        return self

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int) -> "TDer":
        return cls._trusted([LieSeries.zero(alphabet, degree)] * alphabet.n)

    def _check_same(self, other: "TDer"):
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise AmbientMismatch("tangential derivations over different ambients")

    def __eq__(self, other):
        if not isinstance(other, TDer):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __bool__(self):
        return any(self.components)

    def __repr__(self):
        return "<TDer " + ", ".join(repr(c) for c in self.components) + ">"

    def __add__(self, other: "TDer") -> "TDer":
        self._check_same(other)
        return TDer._trusted([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "TDer":
        return TDer._trusted([-a for a in self.components])

    def __sub__(self, other: "TDer") -> "TDer":
        return self + (-other)

    def scale(self, c) -> "TDer":
        return TDer._trusted([a.scale(c) for a in self.components])

    def homogeneous(self, d: int) -> "TDer":
        return TDer._trusted([a.homogeneous(d) for a in self.components])

    def min_degree(self) -> Optional[int]:
        degs = [a.min_degree() for a in self.components if a]
        return min(degs) if degs else None

    def truncated(self, degree: int) -> "TDer":
        return TDer._trusted([a.truncated(degree) for a in self.components])

    # -- action --------------------------------------------------------

    def _word_view(self):
        """(expansions, their length groups, image length groups, denominator):
        A_k and x_k A_k - A_k x_k as integer numerators over one denominator."""
        if self._words is None:
            scaled, denom = _scaled(*self.components)
            expansions = [{w: c for w, c in _expand(a).items() if c} for a in scaled]
            groups = [_by_length(a) for a in expansions]
            images = []
            for k, a in enumerate(expansions):
                x = {(k,): 1}
                image = _times(x, groups[k], self.degree)
                _times(a, _by_length(x), self.degree, image, -1)
                images.append(_by_length({w: c for w, c in image.items() if c}))
            self._words = expansions, groups, images, denom
        return self._words

    def generator_images(self) -> Tuple[AssocSeries, ...]:
        """u(x_i) = [x_i, a_i] as word series."""
        if self._images is None:
            *_, images, denom = self._word_view()
            self._images = tuple(
                AssocSeries._from_scaled(self.alphabet, self.degree,
                                         {w: c for _, group in image for w, c in group},
                                         denom)
                for image in images)
        return self._images

    def apply_assoc(self, target: AssocSeries) -> AssocSeries:
        """Leibniz extension to the word algebra."""
        if target.alphabet != self.alphabet or target.degree != self.degree:
            raise AmbientMismatch("derivation and target live over different ambients")
        *_, images, denom = self._word_view()
        return AssocSeries._from_scaled(self.alphabet, self.degree,
                                        _act(images, target._num, self.degree),
                                        target._den * denom)

    def apply(self, target: Union[LieSeries, AssocSeries, CycSeries]):
        """Act on a Lie, word, or cyclic series; the result has the same kind."""
        if isinstance(target, LieSeries):
            return LieSeries.from_assoc(self.apply_assoc(target.to_assoc()))
        if isinstance(target, AssocSeries):
            return self.apply_assoc(target)
        if isinstance(target, CycSeries):
            if target.alphabet != self.alphabet or target.degree != self.degree:
                raise AmbientMismatch("derivation and target over different ambients")
            return tr_project(self.apply_assoc(target.representative()))
        raise TypeError(f"cannot apply a derivation to {type(target).__name__}")

    def bracket(self, other: "TDer") -> "TDer":
        """[u, v] with components u(b_k) - v(a_k) + [a_k, b_k].

        The contract is that the action of the result is the commutator of
        the actions.  With A_k, u's images over d_a and B_k, v's images
        over d_b, all four terms sit over d_a d_b: each component is summed
        in integers and solved back to the Lyndon basis once.
        """
        self._check_same(other)
        degree = self.degree
        a_words, a_groups, u_images, da = self._word_view()
        b_words, b_groups, v_images, db = other._word_view()
        comps = []
        for a, a_group, b, b_group in zip(a_words, a_groups, b_words, b_groups):
            table = _act(u_images, b, degree)
            _act(v_images, a, degree, table, -1)
            _times(a, b_group, degree, table)
            _times(b, a_group, degree, table, -1)
            comps.append(LieSeries._from_scaled(self.alphabet, degree, _solve(table),
                                                da * db))
        # every term has degree >= 2, so no component gains a linear term
        return TDer._trusted(comps)


def _act(images: List[List[Tuple[int, list]]], coeffs: Dict[Word, int], degree: int,
         table: Optional[Dict[Word, int]] = None, sign: int = 1) -> Dict[Word, int]:
    """Leibniz action of integer generator images (``_by_length`` groups, one
    per letter) on an integer word table, dropping words longer than
    ``degree``.  With ``table`` given, ``sign`` times the action is added
    into it, and it is returned."""
    if table is None:
        table = {}
    get = table.get
    for word, c in coeffs.items():
        c *= sign
        room = degree - (len(word) - 1)
        for pos, letter in enumerate(word):
            prefix, suffix = word[:pos], word[pos + 1:]
            for length, group in images[letter]:
                if length > room:
                    break
                for w, e in group:
                    full = prefix + w + suffix
                    table[full] = get(full, 0) + c * e
    return table


def divergence(u: TDer) -> CycSeries:
    """div(u) = tr(sum_i x_i * d_i(a_i)), projected once."""
    alphabet, degree = u.alphabet, u.degree
    return tr_project(_lincomb(
        ((1, AssocSeries.generator(alphabet, degree, i) * partial_decompose(a.to_assoc(), i))
         for i, a in enumerate(u.components)),
        AssocSeries.zero(alphabet, degree)))


@dataclass(frozen=True)
class DerivationFlags:
    special: bool
    krv: bool
    witness_degree: Optional[int] = None


def classify(u: TDer) -> DerivationFlags:
    """special <=> sum_i [x_i, a_i] = 0; krv <=> special with zero divergence.

    When a flag fails, witness_degree is the first degree where it does.
    """
    total = _lincomb(((1, img) for img in u.generator_images()),
                     AssocSeries.zero(u.alphabet, u.degree))
    if total:
        return DerivationFlags(False, False, total.min_degree())
    div = divergence(u)
    if div:
        return DerivationFlags(True, False, div.min_degree())
    return DerivationFlags(True, True)


# -- simplicial extensions --------------------------------------------


def parse_pattern(pattern: Union[str, Sequence[Sequence[int]]],
                  arity: Optional[int] = None) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Comma notation like "12,3" or "1,23" into groups of 1-based indices.

    Target generators not covered by any group get the zero component; the
    target arity defaults to the largest index mentioned.
    """
    if isinstance(pattern, str):
        groups = tuple(tuple(int(ch) for ch in part) for part in pattern.split(","))
    else:
        groups = tuple(tuple(g) for g in pattern)
    flat = [i for g in groups for i in g]
    if not groups or not flat or any(i < 1 for i in flat):
        raise ValueError(f"malformed pattern {pattern!r}")
    if len(set(flat)) != len(flat):
        raise ValueError(f"pattern groups must be disjoint: {pattern!r}")
    if any(not g for g in groups):
        raise ValueError(f"pattern has an empty group: {pattern!r}")
    m = arity if arity is not None else max(flat)
    if max(flat) > m:
        raise ValueError(f"pattern {pattern!r} exceeds arity {m}")
    return groups, m


@lru_cache(maxsize=None)
def pattern_sums(groups: Tuple[Tuple[int, ...], ...], alphabet: Alphabet,
                 degree: int) -> Tuple[LieSeries, ...]:
    """The sum of the generators in each group, built once per arguments."""
    return tuple(LieSeries._from_scaled(alphabet, degree, {(i - 1,): 1 for i in group}, 1)
                 for group in groups)


def tder_extend(u: TDer, pattern, arity: Optional[int] = None) -> TDer:
    """Simplicial image of u: inside group k the component is a_k at the
    group sums; generators outside every group get zero."""
    groups, m = parse_pattern(pattern, arity)
    if len(groups) != u.alphabet.n:
        raise ValueError(
            f"pattern has {len(groups)} groups but derivation has arity {u.alphabet.n}")
    target = Alphabet(m)
    sums = pattern_sums(groups, target, u.degree)
    zero = LieSeries.zero(target, u.degree)
    comps = [zero] * m
    for k, group in enumerate(groups):
        image = u.components[k].substitute(sums) if u.components[k] else zero
        for i in group:
            comps[i - 1] = image
    return TDer(comps)


# -- infinitesimal braids ---------------------------------------------


@dataclass(frozen=True)
class BraidGenerator:
    """t^{ij} on n strands; symmetric in i <-> j."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError("indices out of range")
        if self.i == self.j:
            raise ValueError("braid generator needs distinct indices")


def braid_embed(g: BraidGenerator, degree: int) -> TDer:
    """t^{ij} -> (..., x_j at slot i, ..., x_i at slot j, ...)."""
    alphabet = Alphabet(g.n)
    comps = [LieSeries.zero(alphabet, degree) for _ in range(g.n)]
    comps[g.i - 1] = LieSeries.generator(alphabet, degree, g.j - 1)
    comps[g.j - 1] = LieSeries.generator(alphabet, degree, g.i - 1)
    return TDer(comps)


def tder_coords(u: TDer, d: int) -> List[Fraction]:
    """Coefficient vector of the degree-d part on the per-component Lyndon basis."""
    basis = lyndon_basis(u.alphabet.n, d)
    out: List[Fraction] = []
    for a in u.components:
        out.extend(a.coefficient(w) for w in basis)
    return out


def strand_coords(u: TDer, i: int, d: int) -> List[Fraction]:
    """Strand i's coordinates of a derivation in t_n: the coefficients of
    component i (0-based) on the degree-d Lyndon words in x_{i+1}, ..., x_n.

    Block i of the braid bracket basis vanishes in the components before
    i, and its component i, at x_i = 0, is the same bracket of x_{i+1},
    ..., x_n.  So strands 0..n-2 read t_n triangularly, and injectively,
    in dim t_n coordinates; component n - 1 is never read.
    """
    return [u.components[i].coefficient(tuple(i + 1 + k for k in w))
            for w in lyndon_basis(u.alphabet.n - 1 - i, d)]


@lru_cache(maxsize=None)
def _braid_basis(n: int, d: int) -> Tuple[Tuple[Tuple[tuple, TDer], ...], ...]:
    """The degree-d braid bracket basis of t_n at truncation d, one block
    per strand i = 1..n-1; built once per (n, d).

    Drinfeld's decomposition t_n = f(t^{12}, ..., t^{1n}) + t_{n-1} (strands
    2..n, as vector spaces), applied strand by strand, makes block i the
    standard bracketings of the Lyndon words over t^{i,i+1}, ..., t^{i,n}.
    A d-fold bracket of degree-1 generators is homogeneous of degree d, so
    truncation d computes it exactly.  Callers validate (n, d) first.
    """
    blocks = []
    for i in range(1, n):
        pairs = [(i, j) for j in range(i + 1, n + 1)]
        gens = [braid_embed(BraidGenerator(i, j, n), d) for i, j in pairs]
        realized: Dict[object, Tuple[tuple, TDer]] = {}

        def realize(struct):
            if struct not in realized:
                if isinstance(struct, int):
                    realized[struct] = pairs[struct], gens[struct]
                else:
                    (l1, u1), (l2, u2) = realize(struct[0]), realize(struct[1])
                    realized[struct] = (l1, l2), u1.bracket(u2)
            return realized[struct]

        blocks.append(tuple(realize(bracket_structure(w))
                            for w in lyndon_basis(len(pairs), d)))
    return tuple(blocks)


def _check_braid_key(n: int, d: int) -> None:
    if n < 2:
        raise ValueError(f"braid brackets need at least 2 strands, not {n}")
    if d < 1:
        raise ValueError(f"braid bracket degree must be >= 1, not {d}")


def braid_bracket_basis(n: int, d: int, degree: int) -> List[Tuple[tuple, TDer]]:
    """Independent degree-d brackets of the embedded t^{ij}, at truncation
    ``degree`` (at least d).

    For each strand i = 1..n-1 in turn, the standard bracketings of the
    Lyndon words over t^{i,i+1}, ..., t^{i,n}.  Each entry is (bracket
    expression over pairs, embedded derivation).  The basis is built once
    per process for each (n, d); every call returns a fresh list.
    """
    _check_braid_key(n, d)
    if degree < d:
        raise ValueError(f"truncation {degree} is below the bracket degree {d}")
    return [(lbl, e.truncated(degree)) for block in _braid_basis(n, d) for lbl, e in block]


def tn_membership(u: TDer, d: Optional[int] = None):
    """Coordinates of a homogeneous derivation on the degree-d braid bracket
    basis, or None when it lies outside the span.

    The coordinates are read strand by strand: block i's are the
    ``strand_coords`` of the remainder on strand i, because the later
    blocks vanish in component i.  Once that block's combination is
    subtracted, strand i + 1 follows; a nonzero final remainder is outside
    the span.

    u needs at least 2 generators; d runs from 1 to u's truncation.
    """
    if d is not None and not 1 <= d <= u.degree:
        raise ValueError(f"membership degree {d} outside 1..{u.degree}, "
                         f"the derivation's truncation")
    degs = {len(w) for a in u.components for w in a._num}
    if d is None:
        if len(degs) != 1:
            raise ValueError("membership input must be homogeneous")
        d = degs.pop()
    elif degs - {d}:
        raise ValueError("membership input must be homogeneous of the stated degree")
    n = u.alphabet.n
    _check_braid_key(n, d)
    rest, zero = u.truncated(d), TDer.zero(u.alphabet, d)
    coords = []
    for i, block in enumerate(_braid_basis(n, d)):
        cs = strand_coords(rest, i, d)
        rest = rest - _lincomb(zip(cs, (e for _lbl, e in block)), zero)
        coords += [(lbl, c) for (lbl, _e), c in zip(block, cs)]
    return None if rest else coords
