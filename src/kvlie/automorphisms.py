"""The prounipotent group of tangential automorphisms.

Elements are stored by their generator images (conjugators are ambiguous
by centralizer factors, images are not).  ``exp`` is the literal series
x_i -> sum_k u^k(x_i)/k!; the distinguished transport elements from the
eyelid/iris picture are provided as ready-made constructors, with their
signs pinned by the R-lemma ch(x,y) -> ch(y,x).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cyclic import CycSeries, tr_project
from .derivations import TDer, divergence, parse_pattern, pattern_sums
from .lie import LieSeries
from .words import (Alphabet, AmbientMismatch, AssocSeries, NotPrimitiveError, Word,
                    _lincomb, _powers)


class NotTangentialImage(ValueError):
    """An image tuple is not of the conjugated form Ad_g x_i."""


def _ad_inverse(i: int, r: LieSeries) -> Optional[LieSeries]:
    """The a with no x_i term and [x_i, a] = r, or None if there is none.

    ad(x_i) is triangular on words: reading x_i a - a x_i = r at the word
    x_i w gives a_w = r_{x_i w} + a_{x_i u} when w = u x_i.  So each term
    of r at x_i w adds its coefficient to w, and to every rotation of w
    that moves a leading x_i to the end.  Powers of x_i are dropped: they
    are the kernel in degree one and never occur in a Lie element above.
    """
    words = r.to_assoc()
    table: Dict[Word, int] = {}
    get = table.get
    for v, c in words._num.items():
        if v[0] != i:
            continue
        w = v[1:]
        if all(letter == i for letter in w):
            continue
        table[w] = get(w, 0) + c
        while w[0] == i:
            w = w[1:] + (i,)
            table[w] = get(w, 0) + c
    try:
        a = LieSeries.from_assoc(
            AssocSeries._from_scaled(r.alphabet, r.degree, table, words._den))
    except NotPrimitiveError:
        return None
    if LieSeries.generator(r.alphabet, r.degree, i).bracket(a) != r:
        return None
    return a


def ad_exponential(c: LieSeries, target: LieSeries) -> LieSeries:
    """e^{ad_c} applied to target, i.e. Ad of the group-like exp(c)."""
    return _lincomb(zip((Fraction(1, factorial(k)) for k in count()),
                        _powers(c.bracket, target)),
                    LieSeries.zero(target.alphabet, target.degree))


class TAutElem:
    """Tangential automorphism stored by generator images."""

    __slots__ = ("alphabet", "degree", "images", "log_certificate",
                 "_word_images", "_conjugator_logs")

    def __init__(self, images: Sequence[LieSeries],
                 log_certificate: Optional[TDer] = None,
                 check: bool = True):
        images = tuple(images)
        if not images:
            raise ValueError("an automorphism needs generator images")
        first = images[0]
        for im in images:
            first._check_same(im)
        if len(images) != first.alphabet.n:
            raise ValueError("need one image per generator")
        self.alphabet = first.alphabet
        self.degree = first.degree
        self.images = images
        self.log_certificate = log_certificate
        self._word_images = None
        self._conjugator_logs = None
        if check:
            self.conjugator_logs()  # raises NotTangentialImage on failure

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, alphabet: Alphabet, degree: int) -> "TAutElem":
        return cls(LieSeries.generators(alphabet, degree), check=False)

    # -- plumbing -----------------------------------------------------

    def _check_same(self, other: "TAutElem"):
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise AmbientMismatch("automorphisms over different ambients")

    def __eq__(self, other):
        if not isinstance(other, TAutElem):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "<TAutElem " + ", ".join(repr(im) for im in self.images) + ">"

    def is_identity(self) -> bool:
        return self == TAutElem.identity(self.alphabet, self.degree)

    def conjugator_logs(self) -> Tuple[LieSeries, ...]:
        """The Lie logarithms c_i with e^{ad_{c_i}} x_i = image_i.

        Solved for every generator on first use and kept on the element.
        The centralizer ambiguity (multiples of x_i in degree one) is fixed
        by excluding them, which is the choice under which group-level and
        derivation-level simplicial extensions agree.
        """
        if self._conjugator_logs is None:
            self._conjugator_logs = tuple(
                self._conjugator_log(i) for i in range(self.alphabet.n))
        return self._conjugator_logs

    def _conjugator_log(self, i: int) -> LieSeries:
        alphabet, degree = self.alphabet, self.degree
        image = self.images[i]
        xi = LieSeries.generator(alphabet, degree, i)
        if image.homogeneous(1) != xi:
            raise NotTangentialImage(
                f"image of generator {i} does not start with the generator")
        c = LieSeries.zero(alphabet, degree)
        for d in range(1, degree):
            residual = (image - ad_exponential(c, xi)).homogeneous(d + 1)
            if not residual:
                continue
            cd = _ad_inverse(i, -residual)
            if cd is None:
                raise NotTangentialImage(
                    f"image of generator {i} is not conjugated at degree {d + 1}")
            c = c + cd
        if image != ad_exponential(c, xi):
            raise NotTangentialImage(f"image of generator {i} is not conjugated")
        return c

    # -- group operations ---------------------------------------------

    def word_images(self) -> Tuple[AssocSeries, ...]:
        """The generator images as word series, converted on first use."""
        if self._word_images is None:
            self._word_images = tuple(im.to_assoc() for im in self.images)
        return self._word_images

    def apply(self, target: Union[LieSeries, AssocSeries, CycSeries]):
        """Algebra-map extension of the generator images."""
        if isinstance(target, LieSeries):
            if target.alphabet != self.alphabet or target.degree != self.degree:
                raise AmbientMismatch("automorphism and target over different ambients")
            return LieSeries.from_assoc(target.to_assoc().substitute(self.word_images()))
        if isinstance(target, AssocSeries):
            if target.alphabet != self.alphabet or target.degree != self.degree:
                raise AmbientMismatch("automorphism and target over different ambients")
            return target.substitute(self.word_images())
        if isinstance(target, CycSeries):
            if target.alphabet != self.alphabet or target.degree != self.degree:
                raise AmbientMismatch("automorphism and target over different ambients")
            rep = target.representative()
            return tr_project(rep.substitute(self.word_images()))
        raise TypeError(f"cannot apply an automorphism to {type(target).__name__}")

    def compose(self, other: "TAutElem") -> "TAutElem":
        """(g . h)(s) = g(h(s))."""
        self._check_same(other)
        images = [self.apply(im) for im in other.images]
        return TAutElem(images, check=False)

    def invert(self) -> "TAutElem":
        """Degree-by-degree fixed point of g(inv(x_i)) = x_i.

        Before step t, inv is right below degree t and has no term of
        degree t, so the step subtracts the degree-t part of g(inv),
        which a substitution at truncation t already gives.
        """
        alphabet, degree = self.alphabet, self.degree
        inv = [AssocSeries.generator(alphabet, degree, i) for i in range(alphabet.n)]
        for t in range(2, degree + 1):
            cut = [im.truncated(t) for im in self.word_images()]
            inv = [s - s.substitute(cut).homogeneous(t).truncated(degree) for s in inv]
        inv = [LieSeries.from_assoc(s) for s in inv]
        result = TAutElem(inv, check=False)
        composed = self.compose(result)
        if not composed.is_identity():
            raise ValueError("inversion failed to converge")
        log = self.log_certificate
        return TAutElem(inv, log_certificate=(-log if log is not None else None),
                        check=False)


def taut_exp(u: TDer) -> TAutElem:
    """x_i -> sum_k u^k(x_i)/k!, truncated."""
    zero = LieSeries.zero(u.alphabet, u.degree)
    images = [_lincomb(zip((Fraction(1, factorial(k)) for k in count()),
                           _powers(u.apply, x)), zero)
              for x in LieSeries.generators(u.alphabet, u.degree)]
    return TAutElem(images, log_certificate=u, check=False)


def taut_log(g: TAutElem) -> TDer:
    """Inverse of taut_exp, solved degree by degree."""
    if g.log_certificate is not None:
        return g.log_certificate
    alphabet, degree = g.alphabet, g.degree
    u = TDer.zero(alphabet, degree)
    for d in range(1, degree):
        current = taut_exp(u)
        comps = list(u.components)
        progress = False
        for i in range(alphabet.n):
            residual = (g.images[i] - current.images[i]).homogeneous(d + 1)
            if not residual:
                continue
            ad = _ad_inverse(i, residual)
            if ad is None:
                raise NotTangentialImage(
                    f"no tangential logarithm at degree {d} (generator {i})")
            comps[i] = comps[i] + ad
            progress = True
        if progress:
            u = TDer(comps)
    if taut_exp(u) != g:
        raise NotTangentialImage("element is not an exponential of a tangential derivation")
    g.log_certificate = u
    return u


def taut_extend(g: TAutElem, pattern, arity: Optional[int] = None) -> TAutElem:
    """Group-level simplicial map: conjugators at the group sums.

    Independent code path from exp(tder_extend(log g)); the two agree
    because the conjugator normalization matches the exponential's.
    """
    groups, m = parse_pattern(pattern, arity)
    if len(groups) != g.alphabet.n:
        raise ValueError(
            f"pattern has {len(groups)} groups but element has arity {g.alphabet.n}")
    target = Alphabet(m)
    sums = pattern_sums(groups, target, g.degree)
    images = LieSeries.generators(target, g.degree)
    for group, c in zip(groups, g.conjugator_logs()):
        ck = c.substitute(sums)
        for i in group:
            xi = LieSeries.generator(target, g.degree, i - 1)
            images[i - 1] = ad_exponential(ck, xi)
    return TAutElem(images, check=False)


def j_group_cocycle(g: TAutElem) -> CycSeries:
    """J(exp u) = sum_k u^k(div u)/(k+1)!; satisfies J(gh) = J(g) + g.J(h)."""
    u = taut_log(g)
    return _lincomb(zip((Fraction(1, factorial(k)) for k in count(1)),
                        _powers(u.apply, divergence(u))),
                    CycSeries.zero(g.alphabet, g.degree))


def inner_automorphism(c: LieSeries) -> TAutElem:
    """Conjugation x_i -> e^{ad_c} x_i = (exp c) x_i (exp -c)."""
    images = [ad_exponential(c, xi)
              for xi in LieSeries.generators(c.alphabet, c.degree)]
    return TAutElem(images, check=False)


def r_element(degree: int) -> TAutElem:
    """The eyelid transport R: x -> Ad_{exp(y)} x, y -> y.

    Satisfies R(ch(x,y)) = ch(y,x); equals taut_exp((-y, 0)).
    """
    alphabet = Alphabet(2)
    x, y = LieSeries.generators(alphabet, degree)
    return TAutElem([ad_exponential(y, x), y],
                    log_certificate=TDer([-y, LieSeries.zero(alphabet, degree)]),
                    check=False)


def iris_derivation(degree: int) -> TDer:
    """t = (y, x), the inner tangential derivation s -> [s, x+y]."""
    alphabet = Alphabet(2)
    x, y = LieSeries.generators(alphabet, degree)
    return TDer([y, x])


# -- involutions ------------------------------------------------------


def _permutation_substitution(alphabet: Alphabet, degree: int,
                              perm: Sequence[int]) -> List[LieSeries]:
    return [LieSeries.generator(alphabet, degree, perm[i])
            for i in range(alphabet.n)]


def _negation(s: LieSeries) -> LieSeries:
    return LieSeries._from_scaled(s.alphabet, s.degree,
                                  {w: -n if len(w) % 2 else n for w, n in s._num.items()},
                                  s._den)


def symmetry_transform(which: str, target: Union[TDer, TAutElem]):
    """tau1 / tau2 on arity 2, kappa on arity 3; all involutions.

    tau1 swaps the two components and the two variables; tau2 and kappa
    negate every generator (sign (-1)^d on homogeneous degree d).
    """
    which = which.lower()
    n = target.alphabet.n
    if which == "tau1":
        if n != 2:
            raise ValueError("tau1 needs arity 2")
        swap = _permutation_substitution(target.alphabet, target.degree, [1, 0])
        if isinstance(target, TDer):
            a, b = target.components
            return TDer([b.substitute(swap), a.substitute(swap)])
        if isinstance(target, TAutElem):
            images = [target.images[1].substitute(swap),
                      target.images[0].substitute(swap)]
            return TAutElem(images, check=False)
    elif which in ("tau2", "kappa"):
        need = 2 if which == "tau2" else 3
        if n != need:
            raise ValueError(f"{which} needs arity {need}")
        if isinstance(target, TDer):
            return TDer([_negation(a) for a in target.components])
        if isinstance(target, TAutElem):
            # nu o g o nu with nu: x_i -> -x_i
            return TAutElem([-_negation(im) for im in target.images], check=False)
    else:
        raise ValueError(f"unknown symmetry {which!r}")
    raise TypeError(f"cannot transform {type(target).__name__}")


def tau_involution(target: Union[TDer, TAutElem]):
    """tau = tau1 tau2 = tau2 tau1 on arity 2."""
    return symmetry_transform("tau1", symmetry_transform("tau2", target))
