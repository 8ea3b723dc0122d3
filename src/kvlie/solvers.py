"""Degree-by-degree exact solvers for the transport equations.

Both solvers work in logarithmic coordinates: the unknown is a tangential
derivation built one homogeneous degree at a time, each step reducing to
an exact rational linear system.  Underdetermined degrees are resolved by
a deterministic gauge (symmetry constraints first, then the least-norm
representative over the kernel).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, reduce
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cyclic import CycSeries, duflo_series, h_subspace_vector
from .derivations import (BraidGenerator, TDer, braid_bracket_basis, braid_embed,
                          divergence, strand_coords, tder_coords, tder_extend)
from .lie import LieSeries, bch_xy
from .lyndon import bracket_structure, lyndon_basis
from .automorphisms import (TAutElem, inner_automorphism, r_element,
                            symmetry_transform, tau_involution, taut_exp,
                            taut_extend, taut_log)
from .words import Alphabet, _lincomb


@dataclass
class DegreeRecord:
    degree: int
    dimension: int
    rank: int
    residual_zero: bool
    gauge: List[Fraction] = field(default_factory=list)


@dataclass
class DegreeReport:
    records: List[DegreeRecord] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def all_zero(self) -> bool:
        return all(r.residual_zero for r in self.records)


def _necklace_basis(n: int, d: int):
    from .cyclic import canonical_rotation
    from itertools import product
    seen = sorted({canonical_rotation(w) for w in product(range(n), repeat=d)})
    return seen


def _kv_parameter_basis(alphabet: Alphabet, degree: int, d: int) -> List[TDer]:
    """Basis of normalized tangential degree-d tuples on two generators."""
    out = []
    zero = LieSeries.zero(alphabet, degree)
    for k in range(alphabet.n):
        for w in lyndon_basis(alphabet.n, d):
            if w == (k,):
                continue
            comps = [zero] * alphabet.n
            comps[k] = LieSeries(alphabet, degree, {w: Fraction(1)})
            out.append(TDer(comps))
    return out


def _tau_fixed_subspace(basis: Sequence[TDer], d: int) -> List[TDer]:
    """Combinations of the basis fixed by tau = tau1 tau2."""
    vectors = [tder_coords(u, d) for u in basis]
    tau_vectors = [tder_coords(tau_involution(u), d) for u in basis]
    k = len(basis)
    a = [[tau_vectors[j][r] - vectors[j][r] for j in range(k)]
         for r in range(len(vectors[0]))]
    zero = TDer.zero(basis[0].alphabet, basis[0].degree)
    return [_lincomb(zip(combo, basis), zero) for combo in linalg.nullspace(a)]


def solve_kv(degree: int, gauge: str = "symmetric") -> Tuple[TAutElem, DegreeReport]:
    """Build F = exp(u) with F(ch(x,y)) = x + y exactly up to the truncation.

    Each homogeneous step also keeps the group divergence cocycle J(F)
    inside the span of tr h(x) + tr h(y) - tr h(ch), which is the second
    half of the Kashiwara-Vergne system; the coefficient of each new
    tr-power enters the step as one extra unknown.

    gauge: "symmetric" restricts the per-degree solution to the tau-fixed
    subspace before taking the least-norm representative; "minimal-norm"
    takes the least-norm representative over the full kernel.
    """
    if degree < 2:
        raise ValueError("need degree >= 2")
    if gauge not in ("symmetric", "minimal-norm"):
        raise ValueError(f"unknown gauge {gauge!r}")
    alphabet = Alphabet(2)
    ch = bch_xy(degree)
    target = LieSeries.generator(alphabet, degree, 0) + \
        LieSeries.generator(alphabet, degree, 1)
    u = TDer.zero(alphabet, degree)
    h_coeffs: Dict[int, Fraction] = {}
    steps = []
    report = DegreeReport()
    from .automorphisms import j_group_cocycle

    for d in range(1, degree + 1):
        basis = _kv_parameter_basis(alphabet, degree, d)
        if gauge == "symmetric":
            basis = _tau_fixed_subspace(basis, d)
        current = taut_exp(u)
        # the ch equation one degree up (a degree-d step acts on x + y
        # there) together with the J condition at degree d, where div of
        # the step lands
        lie_basis_next = lyndon_basis(2, d + 1) if d < degree else []
        cyc_basis_here = _necklace_basis(2, d)
        ch_residual = (current.apply(ch) - target).homogeneous(d + 1)
        j_residual = (j_group_cocycle(current)
                      - _h_span_element(h_coeffs, degree)).homogeneous(d)
        with_c = d >= 2
        v_new = h_subspace_vector(d, degree).homogeneous(d) if with_c else None

        eq_cols: List[List[Fraction]] = []
        for e in basis:
            change_ch = e.apply(target).homogeneous(d + 1)
            change_j = divergence(e).homogeneous(d)
            eq_cols.append(
                [change_ch.coefficient(w) for w in lie_basis_next]
                + [change_j.coefficient(w) for w in cyc_basis_here])
        if with_c:
            # column for the new tr-power coefficient (J equation only)
            eq_cols.append(
                [Fraction(0)] * len(lie_basis_next)
                + [-v_new.coefficient(w) for w in cyc_basis_here])
        b = ([-ch_residual.coefficient(w) for w in lie_basis_next]
             + [-j_residual.coefficient(w) for w in cyc_basis_here])
        a = [[eq_cols[j][r] for j in range(len(eq_cols))] for r in range(len(b))]
        particular, null = linalg.solve_affine(a, b)
        if particular is None:
            raise RuntimeError(
                f"KV system inconsistent at degree {d} (implementation bug)")
        solution = linalg.min_norm_pick(particular, null)
        step_coeffs = solution[:-1] if with_c else solution
        u = u + _lincomb(zip(step_coeffs, basis), TDer.zero(alphabet, degree))
        if with_c:
            h_coeffs[d] = solution[-1]
        steps.append((d, len(eq_cols), len(eq_cols) - len(null), solution))

    # each degree-d record is measured on F: the ch residual one degree up
    # and the J residual at degree d
    f = taut_exp(u)
    final_residual = f.apply(ch) - target
    j_f = j_group_cocycle(f)
    j_residual = j_f - _h_span_element(h_coeffs, degree)
    for d, dimension, rank, solution in steps:
        report.records.append(DegreeRecord(
            degree=d,
            dimension=dimension,
            rank=rank,
            residual_zero=not (final_residual.homogeneous(d + 1)
                               or j_residual.homogeneous(d)),
            gauge=solution))
    duf = duflo_series(degree)
    report.notes["h_coefficients"] = dict(h_coeffs)
    report.notes["defining_residual_zero"] = not final_residual
    report.notes["j_minus_duf_zero"] = not (j_f - duf)
    report.notes["j_plus_duf_zero"] = not (j_f + duf)
    report.notes["j_in_h_subspace"] = _j_subspace_rank_test(j_f, degree)
    return f, report


def _h_span_element(h_coeffs: Dict[int, Fraction], degree: int) -> CycSeries:
    """sum_k h_k (tr x^k + tr y^k - tr ch^k) for the tr-power coefficients h_k."""
    return _lincomb(((c, h_subspace_vector(k, degree)) for k, c in h_coeffs.items() if c),
                    CycSeries.zero(Alphabet(2), degree))


def _j_subspace_rank_test(j: CycSeries, degree: int) -> bool:
    """Rank test: j lies in span{tr h(x)+tr h(y)-tr h(ch)} through the truncation."""
    vectors = []
    basis = [w for d in range(1, degree + 1) for w in _necklace_basis(2, d)]
    for k in range(2, degree + 1):
        v = h_subspace_vector(k, degree)
        vectors.append([v.coefficient(w) for w in basis])
    target = [j.coefficient(w) for w in basis]
    return linalg.in_span(vectors, target) is not None


# -- associator -------------------------------------------------------


@dataclass
class AssociatorCandidate:
    element: TAutElem
    log: TDer
    tn_coordinates: Dict[int, List] = field(default_factory=dict)


def tder_bch(u: TDer, v: TDer, order: int) -> TDer:
    """log(exp(u) exp(v)) inside the Lie algebra of tangential derivations.

    The universal two-letter formula is realized with derivation brackets;
    brackets of more than ``order`` factors are dropped, which is exact
    when the inputs have derivation degree >= 1.
    """
    ch = bch_xy(order)

    @cache
    def realize(struct):
        if isinstance(struct, int):
            return (u, v)[struct]
        return realize(struct[0]).bracket(realize(struct[1]))

    total = _lincomb(((n, realize(bracket_structure(w))) for w, n in ch._num.items()),
                     TDer.zero(u.alphabet, u.degree))
    # drop the terms above ``order``, keeping the ambient
    return total.truncated(order).truncated(u.degree).scale(Fraction(1, ch._den))


def _bch_chain(factors: Sequence[TDer], order: int) -> TDer:
    """log of the product exp(f_1) ... exp(f_k), folded right to left."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = tder_bch(f, out, order)
    return out


# The associator axioms, each stated once as (lhs factors, rhs factors);
# the residual is log(rhs^-1 lhs).  A factor is a simplicial extension
# (pattern, arity) of Phi or, written as a string, exp(s t / 2) for the
# named sum t of braid generators, s the hexagon sign.
_AXIOMS = {
    "duality": ((("3,2,1", 3), ("1,2,3", 3)), ()),
    "pentagon": ((("1,2,34", 4), ("12,3,4", 4)),
                 (("2,3,4", 4), ("1,23,4", 4), ("1,2,3", 4))),
    "hexagon": (("t12", ("3,1,2", 3), "t13", ("2,3,1", 3), "t23", ("1,2,3", 3)),
                ("t12+t13+t23",)),
}


def _signs(name: str) -> Dict[str, int]:
    """Report-key suffix -> hexagon sign: an axiom with braid factors is
    checked once for each sign."""
    lhs, rhs = _AXIOMS[name]
    return {"+": 1, "-": -1} if any(isinstance(f, str) for f in lhs + rhs) else {"": 1}


# the checker's report keys, each -> (axiom, hexagon sign)
_AXIOM_KEYS = {name + tag: (name, sign)
               for name in _AXIOMS for tag, sign in _signs(name).items()}
# selector -> report keys; a bare signed axiom name selects its + sign
_AXIOM_SELECTORS = {sel: (key,) for key, (name, sign) in _AXIOM_KEYS.items()
                    for sel in ((name, key) if sign > 0 else (key,))}
_AXIOM_SELECTORS["all"] = tuple(_AXIOM_KEYS)


def _braid_tders(degree: int) -> Dict[str, TDer]:
    return {f"t{i}{j}": braid_embed(BraidGenerator(i, j, 3), degree)
            for i, j in ((1, 2), (1, 3), (2, 3))}


def _braid_log(t: Dict[str, TDer], f: str, sign: int) -> TDer:
    """sign / 2 times the named sum f of braid generators, as "t12+t13+t23"."""
    names = f.split("+")
    return sum((t[n] for n in names[1:]), t[names[0]]).scale(Fraction(sign, 2))


def _axiom_residuals(phi: TDer, degree: int, wanted: Sequence[str]) -> Dict[str, TDer]:
    """Exact log-residuals of the wanted axioms, extended at the group level.

    wanted holds report keys: duality, pentagon (arity 4), hexagon+ and
    hexagon-; each residual is built once, and no other.  A
    derivation-degree-d log term first shows up in generator images at
    word degree d + 1, so everything runs one order above ``degree``.
    """
    # the log terms up to degree, moved to ambient degree + 1
    phi = phi.truncated(degree).truncated(degree + 1)
    big = taut_exp(phi)
    t = _braid_tders(degree + 1)
    ext = cache(lambda f: taut_extend(big, *f))

    def product(side, sign):
        return reduce(TAutElem.compose, [taut_exp(_braid_log(t, f, sign))
                                         if isinstance(f, str) else ext(f) for f in side])

    out: Dict[str, TDer] = {}
    for key in wanted:
        name, sign = _AXIOM_KEYS[key]
        lhs, rhs = _AXIOMS[name]
        g = product(lhs, sign)
        if len(rhs) == 1 and isinstance(rhs[0], str):
            # an exponential is inverted by negating its log
            g = taut_exp(-_braid_log(t, rhs[0], sign)).compose(g)
        elif rhs:
            g = product(rhs, sign).invert().compose(g)
        out[key] = taut_log(g)
    return out


def _log_residuals(phi: TDer, degree: int, hexagon_sign: int) -> Dict[str, TDer]:
    """Axiom residual logs computed wholly at the derivation level.

    Independent of the automorphism path in _axiom_residuals, with which it
    shares only the statement in _AXIOMS: nothing here is ever
    exponentiated, products are folded through tder_bch.  Only the
    degree-``degree`` coordinates are read, and the algebra is graded, so
    everything runs at ambient ``degree``.
    """
    phi = phi.truncated(degree)
    t = _braid_tders(phi.degree)
    ext = cache(lambda f: tder_extend(phi, *f))

    def chain(side):
        return _bch_chain([_braid_log(t, f, hexagon_sign) if isinstance(f, str)
                           else ext(f) for f in side], degree)

    return {name: tder_bch(-chain(rhs), chain(lhs), degree) if rhs else chain(lhs)
            for name, (lhs, rhs) in _AXIOMS.items()}


def _linear_residuals(e: TDer) -> Dict[str, TDer]:
    """Linear part of the axiom residuals for a homogeneous step e.

    Every bracket with e raises the degree, so at the degree of e the
    residuals of phi + e are those of phi plus the extensions of e, signed
    + on the lhs and - on the rhs; the braid factors drop out, so the
    hexagon part is the same for both signs.
    """
    ext = cache(lambda f: tder_extend(e, *f))
    out = {}
    for name, (lhs, rhs) in _AXIOMS.items():
        terms = [(sign, ext(f)) for sign, side in ((1, lhs), (-1, rhs))
                 for f in side if not isinstance(f, str)]
        out[name] = _lincomb(terms, TDer.zero(terms[0][1].alphabet, e.degree))
    return out


def _residual_vector(res: Dict[str, TDer], d: int) -> List[Fraction]:
    """The strand coordinates of each axiom residual at degree d.  The
    residuals of a log in t_3 lie in t_4 + t_3 + t_3, on which these
    dim t_4 + 2 dim t_3 rows are injective."""
    return [c for name in _AXIOMS for i in range(res[name].alphabet.n - 1)
            for c in strand_coords(res[name], i, d)]


@lru_cache(maxsize=None)
def _associator_operator(d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Rows of the linearised axiom operator on the degree-d braid bracket
    basis: one column per basis element, built once per degree.  It depends
    on neither phi, the parity nor the hexagon sign."""
    columns = [_residual_vector(_linear_residuals(e), d)
               for _lbl, e in braid_bracket_basis(3, d, d)]
    return tuple(zip(*columns))


def solve_associator(degree: int, parity: str = "even",
                     hexagon_sign: int = 1) -> Tuple[AssociatorCandidate, DegreeReport]:
    """Solve duality + pentagon + hexagon for log(Phi) in the braid span.

    parity="even" zeroes every odd homogeneous degree (kappa-invariance);
    "unconstrained" leaves odd degrees to the equations and the gauge.
    Each degree folds its residuals once and takes one step, over an empty
    basis where the parity skips it.  Its record adds the step's linear
    residuals (exact in degree d) and reads every word of every component.
    """
    if degree < 2:
        raise ValueError("need degree >= 2")
    if parity not in ("even", "unconstrained"):
        raise ValueError(f"unknown parity {parity!r}")
    if hexagon_sign not in (1, -1):
        raise ValueError("hexagon sign must be +1 or -1")
    alphabet = Alphabet(3)
    # ambient order degree + 1 so the top log term is visible in images
    phi = TDer.zero(alphabet, degree + 1)
    report = DegreeReport()
    coords: Dict[int, List] = {}

    for d in range(1, degree + 1):
        res = _log_residuals(phi, d, hexagon_sign)
        skipped = parity == "even" and d % 2 == 1
        basis = [] if skipped else braid_bracket_basis(3, d, degree + 1)
        solution, null = [], []
        if basis:
            b = [-v for v in _residual_vector(res, d)]
            particular, null = linalg.solve_affine(_associator_operator(d), b)
            if particular is None:
                raise RuntimeError(f"associator system infeasible at degree {d}")
            solution = linalg.min_norm_pick(particular, null)
        step = _lincomb(zip(solution, (e for _lbl, e in basis)),
                        TDer.zero(alphabet, degree + 1))
        lin = _linear_residuals(step)
        ok = not any((res[k] + lin[k].truncated(d)).homogeneous(d) for k in res)
        report.records.append(DegreeRecord(
            d, len(basis), len(basis) - len(null), ok, solution))
        if skipped and not ok:
            raise RuntimeError(
                f"even-parity associator system infeasible at odd degree {d}")
        phi = phi + step
        coords[d] = [(lbl, c) for c, (lbl, _e) in zip(solution, basis)]

    candidate = AssociatorCandidate(element=taut_exp(phi), log=phi,
                                    tn_coordinates=coords)
    return candidate, report


def check_associator_axioms(candidate, which: str = "all",
                            degree: Optional[int] = None) -> DegreeReport:
    """Re-check the axioms through the independent extend-then-compose path.

    ``candidate`` is an AssociatorCandidate or a TAutElem on 3 generators.
    which: duality | pentagon | hexagon (the + sign) | hexagon+ | hexagon- | all.
    degree: the log degree checked, 1 .. element.degree - 1 (the default).
    """
    element = candidate.element if isinstance(candidate, AssociatorCandidate) else candidate
    if element.alphabet.n != 3:
        raise ValueError("associator candidates live on 3 generators")
    if which not in _AXIOM_SELECTORS:
        raise ValueError(f"unknown axiom selector {which!r}")
    wanted = _AXIOM_SELECTORS[which]
    top = element.degree - 1
    n_degree = top if degree is None else degree
    if not 1 <= n_degree <= top:
        raise ValueError(f"check degree {n_degree} outside 1..{top} for an "
                         f"element truncated at {element.degree}")
    phi = taut_log(element).truncated(n_degree)
    residuals = _axiom_residuals(phi, n_degree, wanted)
    report = DegreeReport()
    for name in wanted:
        r = residuals[name]
        for d in range(1, n_degree + 1):
            vec = tder_coords(r, d)
            report.records.append(DegreeRecord(d, len(vec), 0, not any(vec)))
        report.notes[name] = not r
    return report


def check_f_symmetries(f: TAutElem, degree: Optional[int] = None) -> DegreeReport:
    """Residuals of the eyelid identities and of tau-invariance.

    The two transport identities compare F against e^{t/2} tau1(F)
    tau1(R^{-1}) and e^{-t/2} tau1(F) R, with t = (y,x) realized as the
    inner conjugation by exp((x+y)/2) and R the eyelid transport.
    """
    if f.alphabet.n != 2:
        raise ValueError("F lives on 2 generators")
    n_degree = f.degree if degree is None else degree
    if not 1 <= n_degree <= f.degree:
        raise ValueError(
            f"check degree {n_degree} outside 1..{f.degree}, the element's truncation")
    if n_degree != f.degree:
        f = TAutElem([im.truncated(n_degree) for im in f.images], check=False)
    alphabet = f.alphabet
    x = LieSeries.generator(alphabet, n_degree, 0)
    y = LieSeries.generator(alphabet, n_degree, 1)
    half_inner = inner_automorphism((x + y).scale(Fraction(1, 2)))
    r = r_element(n_degree)
    tau1_f = symmetry_transform("tau1", f)
    rhs1 = reduce(TAutElem.compose,
                  [half_inner, tau1_f, symmetry_transform("tau1", r.invert())])
    rhs2 = reduce(TAutElem.compose, [half_inner.invert(), tau1_f, r])
    tau_f = tau_involution(f)
    report = DegreeReport()
    for name, lhs, rhs in (("eyelid_plus", f, rhs1),
                           ("eyelid_minus", f, rhs2),
                           ("tau_invariance", f, tau_f)):
        diffs = [l - rr for l, rr in zip(lhs.images, rhs.images)]
        per_degree = {}
        for d in range(1, n_degree + 1):
            per_degree[d] = all(not s.homogeneous(d) for s in diffs)
        report.notes[name] = per_degree
        report.records.append(DegreeRecord(
            0, 0, 0, all(per_degree.values())))
    return report
