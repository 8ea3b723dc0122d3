"""Tangential derivations: action, bracket, divergence, braids, extensions."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlie import linalg
from kvlie.cyclic import CycSeries
from kvlie.derivations import (BraidGenerator, TDer, braid_bracket_basis,
                               braid_embed, classify, divergence,
                               parse_pattern, tder_coords, tder_extend,
                               tn_membership)
from kvlie.lie import LieSeries
from kvlie.lyndon import bracket_structure, lyndon_basis
from kvlie.words import Alphabet

from test_lie import rand_lie

A2 = Alphabet(2)


def rand_tder(rng, alphabet, degree):
    return TDer([rand_lie(rng, alphabet, degree) for _ in range(alphabet.n)])


def test_normalization_projects_linear_term():
    x = LieSeries.generator(A2, 3, 0)
    y = LieSeries.generator(A2, 3, 1)
    u = TDer([x + y, x])
    assert u.components[0] == y  # the x part of a_1 is dropped


def test_action_is_derivation():
    rng = random.Random(51)
    for _ in range(6):
        u = rand_tder(rng, A2, 5)
        a = rand_lie(rng, A2, 5).to_assoc()
        b = rand_lie(rng, A2, 5).to_assoc()
        assert u.apply_assoc(a * b) == \
            u.apply_assoc(a) * b + a * u.apply_assoc(b)


def test_bracket_matches_action_commutator():
    rng = random.Random(52)
    for alphabet, degree, trials in ((A2, 5, 6), (Alphabet(3), 4, 3)):
        for _ in range(trials):
            u = rand_tder(rng, alphabet, degree)
            v = rand_tder(rng, alphabet, degree)
            w = u.bracket(v)
            for i in range(alphabet.n):
                xi = LieSeries.generator(alphabet, degree, i)
                assert w.apply(xi) == u.apply(v.apply(xi)) - v.apply(u.apply(xi))


def test_divergence_cocycle():
    rng = random.Random(53)
    for _ in range(10):
        u = rand_tder(rng, A2, 5)
        v = rand_tder(rng, A2, 5)
        lhs = divergence(u.bracket(v))
        rhs = u.apply(divergence(v)) - v.apply(divergence(u))
        assert lhs == rhs


def test_divergence_example():
    x = LieSeries.generator(A2, 3, 0)
    y = LieSeries.generator(A2, 3, 1)
    u = TDer([x.bracket(y), LieSeries.zero(A2, 3)])
    assert divergence(u) == CycSeries(A2, 3, {(0, 1): Fraction(-1)})


def test_classify_iris():
    x = LieSeries.generator(A2, 4, 0)
    y = LieSeries.generator(A2, 4, 1)
    flags = classify(TDer([y, x]))
    assert flags.special and flags.krv and flags.witness_degree is None


def test_classify_witnesses():
    y = LieSeries.generator(A2, 4, 1)
    not_special = classify(TDer([y, LieSeries.zero(A2, 4)]))
    assert not not_special.special
    assert not not_special.krv
    assert not_special.witness_degree == 2


def test_pattern_parsing():
    groups, m = parse_pattern("12,3")
    assert groups == ((1, 2), (3,)) and m == 3
    groups, m = parse_pattern("1,23", 4)
    assert groups == ((1,), (2, 3)) and m == 4
    with pytest.raises(ValueError):
        parse_pattern("1,1")
    with pytest.raises(ValueError):
        parse_pattern("12,3", 2)


def test_extension_is_lie_homomorphism():
    rng = random.Random(54)
    for pattern in ("1,2", "12,3", "1,23", "3,1,2"):
        for _ in range(3):
            n_groups = pattern.count(",") + 1
            alph = Alphabet(n_groups)
            u = rand_tder(rng, alph, 4)
            v = rand_tder(rng, alph, 4)
            eu = tder_extend(u, pattern)
            ev = tder_extend(v, pattern)
            assert tder_extend(u.bracket(v), pattern) == eu.bracket(ev)


def test_braid_embed_components():
    t12 = braid_embed(BraidGenerator(1, 2, 3), 3)
    a3 = Alphabet(3)
    assert t12.components[0] == LieSeries.generator(a3, 3, 1)
    assert t12.components[1] == LieSeries.generator(a3, 3, 0)
    assert not t12.components[2]


def test_braid_relations():
    degree = 5
    for n in (3, 4):
        t = {(i, j): braid_embed(BraidGenerator(i, j, n), degree)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        # locality: disjoint index pairs commute
        if n == 4:
            assert not t[(1, 2)].bracket(t[(3, 4)])
            assert not t[(1, 3)].bracket(t[(2, 4)])
        # 3-term relations
        for (i, j, k) in [(1, 2, 3)] + ([(1, 2, 4), (2, 3, 4)] if n == 4 else []):
            assert not t[(i, j)].bracket(t[(i, k)] + t[(j, k)])


def test_central_element():
    degree = 5
    t = {(i, j): braid_embed(BraidGenerator(i, j, 3), degree)
         for i, j in [(1, 2), (1, 3), (2, 3)]}
    c = t[(1, 2)] + t[(1, 3)] + t[(2, 3)]
    for u in t.values():
        assert not c.bracket(u)


def test_tn_membership():
    degree = 4
    t12 = braid_embed(BraidGenerator(1, 2, 3), degree)
    t23 = braid_embed(BraidGenerator(2, 3, 3), degree)
    w = t12.bracket(t23)
    coords = tn_membership(w)
    assert coords is not None
    rebuilt = TDer.zero(Alphabet(3), degree)
    basis = dict(braid_bracket_basis(3, 2, degree))
    for lbl, c in coords:
        if c:
            rebuilt = rebuilt + basis[lbl].scale(c)
    assert rebuilt == w
    # something outside the span
    x = LieSeries.generator(Alphabet(3), degree, 0)
    z = LieSeries.zero(Alphabet(3), degree)
    outside = TDer([z, x.bracket(LieSeries.generator(Alphabet(3), degree, 2)), z])
    assert tn_membership(outside, 2) is None


def uncached_braid_basis(n, d, degree):
    """Every Lyndon word over the pairs bracketed at truncation ``degree``,
    then the first independent ones in that order (the pivot columns of
    the row-reduced coordinate matrix): the greedy basis, without any
    cache or closed form."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    gens = [braid_embed(BraidGenerator(i, j, n), degree) for i, j in pairs]

    def realize(struct):
        if isinstance(struct, int):
            return pairs[struct], gens[struct]
        (l1, u1), (l2, u2) = realize(struct[0]), realize(struct[1])
        return (l1, l2), u1.bracket(u2)

    candidates = [realize(bracket_structure(w)) for w in lyndon_basis(len(pairs), d)]
    columns = [tder_coords(u, d) for _lbl, u in candidates]
    _rows, keep = linalg._rref([list(row) for row in zip(*columns)])
    return [candidates[i] for i in keep]


@pytest.mark.parametrize("n,d", [(3, d) for d in range(1, 6)] + [(4, d) for d in range(1, 4)]
                         + [(5, 2), (5, 3)])
def test_braid_bracket_basis_matches_uncached(n, d):
    for degree in (d, d + 1):
        basis = braid_bracket_basis(n, d, degree)
        assert basis == uncached_braid_basis(n, d, degree)
        assert all(e.degree == degree for _lbl, e in basis)


def test_braid_bracket_basis_returns_a_fresh_list():
    first = braid_bracket_basis(3, 3, 4)
    want = list(first)
    first.clear()
    second = braid_bracket_basis(3, 3, 4)
    assert second == want
    second[0] = ("junk", second[1][1])
    assert braid_bracket_basis(3, 3, 4) == want


@pytest.mark.parametrize("call", [
    lambda: braid_bracket_basis(1, 2, 3),
    lambda: braid_bracket_basis(3, 0, 3),
    lambda: braid_bracket_basis(3, -1, 3),
    lambda: braid_bracket_basis(3, 3, 2),
], ids=["one_strand", "degree_0", "degree_negative", "truncation_below_degree"])
def test_braid_bracket_basis_rejects_bad_keys(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("d", [0, -3, 4, 9])
def test_tn_membership_degree_range(d):
    # u is truncated at 3: the degree must lie in 1..3
    u = TDer.zero(Alphabet(3), 3)
    with pytest.raises(ValueError, match="outside 1..3"):
        tn_membership(u, d)


def test_tn_membership_needs_two_strands():
    u = TDer([LieSeries.zero(Alphabet(1), 3)])
    with pytest.raises(ValueError, match="2 strands"):
        tn_membership(u, 2)


def outside_t3(d):
    """(0, ad(x)^(d-1) z, 0): a degree-d derivation no braid bracket reaches."""
    alphabet = Alphabet(3)
    a = LieSeries.generator(alphabet, d, 2)
    for _ in range(d - 1):
        a = LieSeries.generator(alphabet, d, 0).bracket(a)
    zero = LieSeries.zero(alphabet, d)
    return TDer([zero, a, zero])


@st.composite
def braid_combinations(draw):
    d = draw(st.integers(2, 5))
    basis = braid_bracket_basis(3, d, d)
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                           min_size=len(basis), max_size=len(basis)))
    return d, basis, coeffs


@settings(max_examples=40, deadline=None)
@given(braid_combinations())
def test_tn_membership_coordinates_rebuild(case):
    d, basis, coeffs = case
    u = TDer.zero(Alphabet(3), d)
    for c, (_lbl, e) in zip(coeffs, basis):
        u = u + e.scale(c)
    if u:
        assert tn_membership(u) == [(lbl, c) for c, (lbl, _e) in zip(coeffs, basis)]
    assert tn_membership(u + outside_t3(d), d) is None


@st.composite
def braid_members_and_strays(draw):
    """A random combination of a t_n braid basis, and one Lyndon term to
    add to one component of it."""
    n = draw(st.sampled_from([2, 3, 4, 5]))
    d = draw(st.integers(1, {2: 2, 3: 5, 4: 3, 5: 2}[n]))
    degree = draw(st.sampled_from([d, d + 1]))
    basis = braid_bracket_basis(n, d, degree)
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    coeffs = draw(st.lists(coeff, min_size=len(basis), max_size=len(basis)))
    k = draw(st.integers(0, n - 1))
    # a lone x_k in component k is projected away, so it is never drawn
    word = draw(st.sampled_from([w for w in lyndon_basis(n, d) if w != (k,)]))
    c = draw(coeff.filter(bool))
    return n, d, degree, basis, coeffs, k, LieSeries(Alphabet(n), degree, {word: c})


@settings(max_examples=60, deadline=None)
@given(braid_members_and_strays())
def test_tn_membership_reads_back_coefficients(case):
    n, d, degree, basis, coeffs, k, stray = case
    u = TDer.zero(Alphabet(n), degree)
    for c, (_lbl, e) in zip(coeffs, basis):
        u = u + e.scale(c)
    vectors = [tder_coords(e, d) for _lbl, e in basis]
    assert tn_membership(u, d) == [(lbl, c) for c, (lbl, _e) in zip(coeffs, basis)]
    assert linalg.in_span(vectors, tder_coords(u, d)) == coeffs
    comps = list(u.components)
    comps[k] = comps[k] + stray
    v = TDer(comps)
    assert tn_membership(v, d) is None
    assert linalg.in_span(vectors, tder_coords(v, d)) is None
