"""Tangential automorphisms: exp/log, composition, cocycles, symmetries."""
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvlie.automorphisms import (NotTangentialImage, TAutElem, _ad_inverse,
                                 inner_automorphism, iris_derivation,
                                 j_group_cocycle, r_element,
                                 symmetry_transform, tau_involution, taut_exp,
                                 taut_extend, taut_log)
from kvlie.derivations import TDer, tder_extend
from kvlie.lie import LieSeries, bch, bch_xy
from kvlie.lyndon import lyndon_words
from kvlie.words import Alphabet

from test_derivations import rand_tder

A2 = Alphabet(2)


def test_exp_log_roundtrip():
    rng = random.Random(61)
    for _ in range(6):
        u = rand_tder(rng, A2, 5)
        g = taut_exp(u)
        assert taut_log(g) == u


def test_exp_preserves_bch():
    # automorphisms respect the group law of the free Lie algebra
    rng = random.Random(62)
    u = rand_tder(rng, A2, 5)
    g = taut_exp(u)
    x = LieSeries.generator(A2, 5, 0)
    y = LieSeries.generator(A2, 5, 1)
    assert g.apply(bch(x, y)) == bch(g.apply(x), g.apply(y))


def test_compose_invert():
    rng = random.Random(63)
    u = rand_tder(rng, A2, 5)
    v = rand_tder(rng, A2, 5)
    g, h = taut_exp(u), taut_exp(v)
    gh = g.compose(h)
    x = LieSeries.generator(A2, 5, 0)
    assert gh.apply(x) == g.apply(h.apply(x))
    assert g.compose(g.invert()) == TAutElem.identity(A2, 5)
    assert g.invert().compose(g) == TAutElem.identity(A2, 5)


@st.composite
def tangential_derivations(draw):
    """Sparse u on 2 or 3 letters, truncation 3-6, linear terms allowed."""
    n = draw(st.integers(2, 3))
    degree = draw(st.integers(3, 6))
    alphabet = Alphabet(n)
    keys = st.sampled_from(lyndon_words(n, degree - 1))
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return TDer([LieSeries(alphabet, degree,
                           draw(st.dictionaries(keys, coeffs, max_size=3)))
                 for _ in range(n)])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tangential_derivations())
def test_invert_is_exp_of_negative(u):
    # exp(-u) is computed without invert, so it anchors the inverse
    expected = taut_exp(-u).images
    g = taut_exp(u)
    uncertified = TAutElem(g.images)
    identity = TAutElem.identity(u.alphabet, u.degree)
    for h in (g, uncertified):
        assert h.invert().images == expected
        assert h.compose(h.invert()) == identity
        assert h.invert().compose(h) == identity


fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def ad_problems(draw):
    """(i, a): a generator index and a Lie a with no x_i term, on 2-4
    letters with terms of degree 1-6, truncated one degree above."""
    n = draw(st.integers(2, 4))
    degree = draw(st.integers(1, 6))
    i = draw(st.integers(0, n - 1))
    keys = st.sampled_from([w for w in lyndon_words(n, degree) if w != (i,)])
    table = draw(st.dictionaries(keys, fractions, max_size=5))
    return i, LieSeries(Alphabet(n), degree + 1, table)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ad_problems())
def test_ad_inverse_recovers_the_element(problem):
    i, a = problem
    xi = LieSeries.generator(a.alphabet, a.degree, i)
    r = xi.bracket(a)
    assert _ad_inverse(i, r) == a
    # ad(x_i) has no degree-one image
    assert _ad_inverse(i, r + xi) is None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ad_problems())
def test_ad_inverse_rejects_words_without_the_generator(problem):
    i, a = problem
    r = LieSeries(a.alphabet, a.degree,
                  {w: c for w, c in a.coeffs.items() if i not in w})
    if r:
        assert _ad_inverse(i, r) is None


def test_conjugator_logs_solved_once_per_element():
    g = taut_exp(rand_tder(random.Random(65), Alphabet(3), 4))
    logs = g.conjugator_logs()
    assert len(logs) == 3 and g.conjugator_logs() is logs
    taut_extend(g, "12,3,4", 4)
    assert g.conjugator_logs() is logs
    for c, xi, im in zip(logs, LieSeries.generators(g.alphabet, g.degree), g.images):
        assert inner_automorphism(c).apply(xi) == im


def test_log_rejects_non_tangential():
    x = LieSeries.generator(A2, 4, 0)
    y = LieSeries.generator(A2, 4, 1)
    # x -> x + [x,y] is not conjugation of x by anything
    bad = TAutElem([x + x.bracket(y).scale(2), y], check=False)
    with pytest.raises(NotTangentialImage):
        taut_log(bad)


def test_r_element_swaps_bch():
    degree = 6
    r = r_element(degree)
    ch = bch_xy(degree)
    x = LieSeries.generator(A2, degree, 0)
    y = LieSeries.generator(A2, degree, 1)
    swapped = ch.substitute([y, x])
    assert r.apply(ch) == swapped
    assert r.log_certificate == TDer([-y, LieSeries.zero(A2, degree)])
    assert taut_exp(r.log_certificate) == r


def test_iris_exponentiates_to_inner():
    degree = 6
    t = iris_derivation(degree)
    x = LieSeries.generator(A2, degree, 0)
    y = LieSeries.generator(A2, degree, 1)
    assert taut_exp(t) == inner_automorphism(-(x + y))


def test_j_is_group_cocycle():
    rng = random.Random(64)
    for _ in range(4):
        u = rand_tder(rng, A2, 4)
        v = rand_tder(rng, A2, 4)
        g, h = taut_exp(u), taut_exp(v)
        lhs = j_group_cocycle(g.compose(h))
        rhs = j_group_cocycle(g) + g.apply(j_group_cocycle(h))
        # the composed log can only be recovered below the ambient cap, so
        # the identity is checked strictly below the top degree
        diff = lhs - rhs
        for d in range(1, 4):
            assert not diff.homogeneous(d)


def test_j_vanishes_on_identity():
    assert not j_group_cocycle(TAutElem.identity(A2, 4))


def test_group_extension_matches_derivation_extension():
    rng = random.Random(65)
    for pattern in ("12,3", "1,23"):
        u = rand_tder(rng, A2, 4)
        assert taut_extend(taut_exp(u), pattern) == taut_exp(tder_extend(u, pattern))


def test_symmetries_are_involutions():
    rng = random.Random(66)
    u = rand_tder(rng, A2, 4)
    g = taut_exp(u)
    for which in ("tau1", "tau2"):
        assert symmetry_transform(which, symmetry_transform(which, u)) == u
        assert symmetry_transform(which, symmetry_transform(which, g)) == g
    assert tau_involution(tau_involution(g)) == g
    k = rand_tder(rng, Alphabet(3), 4)
    assert symmetry_transform("kappa", symmetry_transform("kappa", k)) == k


def test_tau1_fixes_iris():
    t = iris_derivation(4)
    assert symmetry_transform("tau1", t) == t


def test_symmetry_arity_errors():
    u = rand_tder(random.Random(67), Alphabet(3), 3)
    with pytest.raises(ValueError):
        symmetry_transform("tau1", u)
    with pytest.raises(ValueError):
        symmetry_transform("mystery", u)
