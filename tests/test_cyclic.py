"""Cyclic words, the trace projection, and the Duflo density."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlie.cyclic import (CycSeries, canonical_rotation, duflo_series,
                          h_subspace_vector, j_of, partial_decompose,
                          tr_project, tr_power)
from kvlie.lie import LieSeries, bch_xy, j_coefficients
from kvlie.lyndon import lyndon_basis
from kvlie.words import Alphabet, AssocSeries, _powers

from test_words import rand_series

A2 = Alphabet(2)


def test_canonical_rotation():
    assert canonical_rotation((1, 0, 1)) == (0, 1, 1)
    assert canonical_rotation((0,)) == (0,)
    with pytest.raises(ValueError):
        canonical_rotation(())


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                max_size=8).map(tuple),
       st.integers(min_value=0, max_value=7))
def test_canonical_rotation_is_rotation_invariant(word, shift):
    shift %= len(word)
    rotated = word[shift:] + word[:shift]
    assert canonical_rotation(rotated) == canonical_rotation(word)
    assert canonical_rotation(word) in {word[i:] + word[:i]
                                        for i in range(len(word))}


def test_tr_kills_commutators():
    rng = random.Random(31)
    for _ in range(15):
        a = rand_series(rng, A2, 5)
        b = rand_series(rng, A2, 5)
        assert not tr_project(a * b - b * a)


def test_tr_cyclic_invariance():
    xy = AssocSeries(A2, 3, {(0, 1): Fraction(1)})
    yx = AssocSeries(A2, 3, {(1, 0): Fraction(1)})
    assert tr_project(xy) == tr_project(yx)


def test_partial_decomposition_reconstructs():
    rng = random.Random(32)
    for _ in range(10):
        a = rand_series(rng, A2, 5)
        rebuilt = AssocSeries.zero(A2, 5)
        for i in range(2):
            xi = AssocSeries.generator(A2, 5, i)
            rebuilt = rebuilt + partial_decompose(a, i) * xi
        assert rebuilt == a


def test_tr_power_example():
    x = LieSeries.generator(A2, 4, 0)
    t = tr_power(x, 3)
    assert t.coefficient((0, 0, 0)) == 1
    assert len(t.coeffs) == 1


def test_j_of_single_generator():
    x = LieSeries.generator(A2, 4, 0)
    j = j_of(x)
    assert j.coefficient((0, 0)) == Fraction(1, 24)
    assert j.coefficient((0, 0, 0)) == 0
    assert j.coefficient((0, 0, 0, 0)) == Fraction(-1, 2880)


@st.composite
def lie_series(draw):
    """A Lie series on two letters at truncation 1..5, random on the Lyndon basis."""
    degree = draw(st.integers(1, 5))
    words = [w for d in range(1, degree + 1) for w in lyndon_basis(2, d)]
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    coeffs = draw(st.lists(coeff, min_size=len(words), max_size=len(words)))
    return LieSeries(A2, degree, dict(zip(words, coeffs)))


@settings(max_examples=30, deadline=None)
@given(lie_series())
def test_power_series_fold_matches_power_sums(z):
    # exp, log and j sum through _powers; the sums here are built from
    # AssocSeries.power and tr_power instead
    a, degree = z.to_assoc(), z.degree
    one, zero = AssocSeries.one(A2, degree), AssocSeries.zero(A2, degree)
    assert a.exp() == sum((a.power(k).scale(Fraction(1, factorial(k)))
                           for k in range(degree + 1)), zero)
    assert (one + a).log() == sum((a.power(k).scale(Fraction((-1) ** (k + 1), k))
                                   for k in range(1, degree + 1)), zero)
    assert j_of(z) == sum((tr_power(z, k).scale(c)
                           for k, c in j_coefficients(max(degree, 2)).items()
                           if k <= degree), CycSeries.zero(A2, degree))
    x = LieSeries.generator(A2, degree, 0)
    assert len(list(_powers(lambda t: t, x))) == degree + 1
    assert list(_powers(lambda t: t, LieSeries.zero(A2, degree))) == []


def test_duflo_degree_two_anchor():
    duf = duflo_series(4)
    assert duf.homogeneous(2) == CycSeries(A2, 4, {(0, 1): Fraction(-1, 24)})


def test_duflo_no_degree_three():
    assert not duflo_series(4).homogeneous(3)


def test_h_subspace_vector_degree_parts():
    v2 = h_subspace_vector(2, 4)
    # tr(x^2) + tr(y^2) - tr(ch^2) starts with -2 tr(xy)
    assert v2.homogeneous(2) == CycSeries(A2, 4, {(0, 1): Fraction(-2)})


def test_duflo_is_combination_of_h_vectors():
    # duf = sum_k b_k/(2 k k!) (tr x^k + tr y^k - tr ch^k)
    from kvlie.lie import j_coefficients
    degree = 5
    duf = duflo_series(degree)
    acc = CycSeries.zero(A2, degree)
    coeffs = j_coefficients(degree)
    for k in range(2, degree + 1):
        c = coeffs[k] / 2
        if c:
            acc = acc + h_subspace_vector(k, degree).scale(c)
    assert acc == duf
