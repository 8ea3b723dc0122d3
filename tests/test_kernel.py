"""Invariants of the exact kernel.

Validation happens once, in the public constructors; arithmetic builds
its results without re-checking them.  These tests pin both halves: the
public checks still reject bad input, and no arithmetic result carries a
zero coefficient, an over-long word or a key the public constructor would
refuse.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvlie import linalg
from kvlie.cyclic import CycSeries, canonical_rotation, partial_decompose, tr_project
from kvlie.derivations import TDer
from kvlie.lie import LieSeries
from kvlie.lyndon import is_lyndon, lyndon_words
from kvlie.words import Alphabet, AssocSeries

A2 = Alphabet(2)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- public constructors ------------------------------------------------


@pytest.mark.parametrize("cls", [AssocSeries, LieSeries, CycSeries])
def test_float_coefficient_rejected(cls):
    with pytest.raises(TypeError):
        cls(A2, 3, {(0,): 0.5})
    with pytest.raises(TypeError):
        cls(A2, 3, {(0,): Fraction(1)}).scale(0.5)


@pytest.mark.parametrize("cls", [AssocSeries, LieSeries, CycSeries])
def test_out_of_alphabet_word_rejected(cls):
    with pytest.raises(ValueError):
        cls(A2, 3, {(0, 2): Fraction(1)})


def test_non_lyndon_key_rejected():
    with pytest.raises(ValueError):
        LieSeries(A2, 3, {(1, 0): Fraction(1)})


def test_non_rotation_minimal_necklace_rejected():
    with pytest.raises(ValueError):
        CycSeries(A2, 3, {(1, 0): Fraction(1)})


def test_augmentation_ideal_rejects_unit():
    with pytest.raises(ValueError):
        AssocSeries(A2, 3, {(): Fraction(1)}, unital=False)


@pytest.mark.parametrize("first, second",
                         list(itertools.combinations([AssocSeries, LieSeries, CycSeries], 2)))
def test_kinds_with_the_same_table_are_unequal(first, second):
    table = {(0,): Fraction(1), (0, 1): Fraction(-2, 3)}
    a, b = first(A2, 3, table), second(A2, 3, table)
    assert a.coeffs == b.coeffs
    assert a != b and b != a


# -- arithmetic results ---------------------------------------------------

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def assoc_series(draw, n, degree, unital=False):
    words = st.lists(st.integers(0, n - 1), min_size=0 if unital else 1,
                     max_size=degree).map(tuple)
    table = draw(st.dictionaries(words, fractions, max_size=8))
    return AssocSeries(Alphabet(n), degree, table, unital=unital)


def assert_clean(s, degree, kind, unital=True):
    """Exactly of class ``kind``, every key valid for it, no zero, nothing
    above the truncation; a word series has the given ``unital`` flag."""
    assert type(s) is kind
    if kind is AssocSeries:
        assert s.unital is unital
    assert s.degree == degree
    for w, c in s.coeffs.items():
        assert isinstance(c, Fraction) and c != 0
        assert len(w) <= degree
        assert all(0 <= i < s.alphabet.n for i in w)
        if isinstance(s, LieSeries):
            assert is_lyndon(w)
        if isinstance(s, CycSeries):
            assert w == canonical_rotation(w)
    # the public constructor accepts the table unchanged
    assert type(s)(s.alphabet, s.degree, s.coeffs).coeffs == s.coeffs


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_assoc_and_cyclic_results_are_clean(data, n, degree):
    a = data.draw(assoc_series(n, degree))
    b = data.draw(assoc_series(n, degree))
    c = data.draw(fractions)
    images = [data.draw(assoc_series(n, degree)) for _ in range(n)]
    ta, tb = tr_project(a), tr_project(b)
    results = {
        AssocSeries: [a + b, a - b, a - a, a + (-a), -a, a.scale(c), a.scale(0),
                      a * b, a.commutator(b), a.homogeneous(degree), a.exp(),
                      a.exp().log(), a.substitute(images),
                      partial_decompose(a, 0)],
        CycSeries: [ta, ta + tb, ta - tb, ta - ta, -ta, ta.scale(c),
                    ta.homogeneous(degree)],
    }
    for kind, rs in results.items():
        for r in rs:
            assert_clean(r, degree, kind)


@st.composite
def lie_series(draw, n, degree):
    keys = st.sampled_from(lyndon_words(n, degree))
    table = draw(st.dictionaries(keys, fractions, max_size=5))
    return LieSeries(Alphabet(n), degree, table)


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_lie_and_derivation_results_are_clean(data, n, degree):
    a = data.draw(lie_series(n, degree))
    b = data.draw(lie_series(n, degree))
    c = data.draw(fractions)
    u = TDer([data.draw(lie_series(n, degree)) for _ in range(n)])
    images = [data.draw(lie_series(n, degree)) for _ in range(n)]
    cyc = tr_project(a.to_assoc() * b.to_assoc())
    results = {
        LieSeries: [a + b, a - b, a - a, -a, a.scale(c), a.scale(0),
                    a.homogeneous(degree), a.bracket(b),
                    LieSeries.from_assoc(a.to_assoc()), a.substitute(images),
                    u.apply(a)],
        AssocSeries: [a.to_assoc(), u.apply(a.to_assoc()), *u.generator_images()],
        CycSeries: [u.apply(cyc)],
    }
    for kind, rs in results.items():
        for r in rs:
            assert_clean(r, degree, kind)
    assert LieSeries.from_assoc(a.to_assoc()) == a


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4), st.integers(1, 5))
def test_truncated_matches_public_constructor(data, n, degree, cut):
    unital = data.draw(st.booleans())
    a = data.draw(assoc_series(n, degree, unital=unital))
    b = data.draw(lie_series(n, degree))
    for s in (a, b, tr_project(a - a.homogeneous(0))):
        t = s.truncated(cut)
        assert t == type(s)(s.alphabet, cut, s.coeffs)
        assert_clean(t, cut, type(s), unital)  # no word beyond the cut
    assert a.truncated(cut).unital is unital


def test_generator_images_are_an_immutable_tuple():
    x, y = LieSeries.generators(A2, 4)
    u = TDer([y, x.bracket(y)])
    images = u.generator_images()
    assert isinstance(images, tuple)
    assert images is u.generator_images()
    for i, a in enumerate(u.components):
        xi = AssocSeries.generator(A2, 4, i)
        assert images[i] == xi * a.to_assoc() - a.to_assoc() * xi


# -- independent_subset -------------------------------------------------


def rank_scan_reference(vectors):
    """The former implementation: full rank recomputed per candidate."""
    chosen, rows, current = [], [], 0
    for idx, vec in enumerate(vectors):
        trial = rows + [list(vec)]
        r = linalg.rank(trial)
        if r > current:
            chosen.append(idx)
            rows, current = trial, r
    return chosen


@st.composite
def candidate_lists(draw):
    """Vectors mixing fresh ones with zeros, duplicates and combinations."""
    width = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    fresh = st.lists(entry, min_size=width, max_size=width)
    out = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["fresh", "zero", "dup", "combo"]))
        if kind == "zero" or (kind != "fresh" and not out):
            out.append([Fraction(0)] * width)
        elif kind == "fresh":
            out.append(draw(fresh))
        elif kind == "dup":
            out.append(list(draw(st.sampled_from(out))))
        else:
            picks = draw(st.lists(st.sampled_from(out), min_size=1, max_size=3))
            coeffs = draw(st.lists(entry, min_size=len(picks), max_size=len(picks)))
            out.append([sum((c * v[j] for c, v in zip(coeffs, picks)), Fraction(0))
                        for j in range(width)])
    return out


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
def test_independent_subset_matches_rank_scan(vectors):
    assert linalg.independent_subset(vectors) == rank_scan_reference(vectors)
