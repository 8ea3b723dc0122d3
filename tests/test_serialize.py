"""JSON encoding round-trips for every serialized object kind."""
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvlie import serialize
from kvlie.automorphisms import TAutElem, taut_exp
from kvlie.cyclic import tr_project
from kvlie.derivations import TDer, classify
from kvlie.graphs import KGraph
from kvlie.lie import LieSeries
from kvlie.lyndon import lyndon_words
from kvlie.words import Alphabet, AssocSeries

from test_derivations import rand_tder
from test_lie import rand_lie
from test_words import rand_series

A2 = Alphabet(2)


def test_fraction_codec():
    assert serialize.encode_fraction(Fraction(-3, 7)) == "-3/7"
    assert serialize.encode_fraction(Fraction(2)) == "2/1"
    assert serialize.decode_fraction("5/15") == Fraction(1, 3)
    assert serialize.decode_fraction(serialize.encode_fraction(Fraction(0))) == 0
    assert serialize.decode_fraction(3) == Fraction(3)
    with pytest.raises(ValueError, match="zero denominator"):
        serialize.decode_fraction("1/0")


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, None, [1, 2]])
def test_inexact_coefficients_rejected(coeff):
    with pytest.raises(ValueError):
        serialize.decode_fraction(coeff)
    doc = {"degreeN": 3, "terms": [{"word": "x", "coeff": "1/1"},
                                   {"word": "xy", "coeff": coeff}]}
    with pytest.raises(ValueError, match="'xy'"):
        serialize.decode_series(doc, "lie")


def test_series_roundtrip_all_kinds():
    rng = random.Random(81)
    lie = rand_lie(rng, A2, 4)
    assert serialize.decode_series(serialize.encode_series(lie), "lie") == lie
    word = rand_series(rng, A2, 4)
    assert serialize.decode_series(serialize.encode_series(word), "assoc") == word
    from kvlie.cyclic import tr_project
    cyc = tr_project(word)
    doc = serialize.encode_series(cyc)
    assert all("necklace" in t for t in doc["terms"])
    assert serialize.decode_series(doc, "cyclic") == cyc


def test_series_terms_are_sorted():
    rng = random.Random(82)
    doc = serialize.encode_series(rand_series(rng, A2, 5))
    keys = [(len(t["word"]), t["word"]) for t in doc["terms"]]
    assert keys == sorted(keys)


def test_tder_and_taut_roundtrip():
    rng = random.Random(83)
    u = rand_tder(rng, A2, 4)
    assert serialize.decode_tder(serialize.encode_tder(u)) == u
    from kvlie.automorphisms import taut_exp, taut_log
    g = taut_exp(u)
    back = serialize.decode_taut(serialize.encode_taut(g))
    assert back == g
    assert taut_log(back) == u


coefficients = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@st.composite
def word_series(draw, n, degree):
    words = st.lists(st.integers(0, n - 1), max_size=degree).map(tuple)
    table = draw(st.dictionaries(words, coefficients, max_size=6))
    return AssocSeries(Alphabet(n), degree, table)


@st.composite
def lie_series(draw, n, degree):
    keys = st.sampled_from(lyndon_words(n, degree))
    return LieSeries(Alphabet(n), degree, draw(st.dictionaries(keys, coefficients,
                                                               max_size=4)))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(2, 6), st.integers(1, 3))
def test_encode_decode_roundtrip(data, n, degree):
    word = data.draw(word_series(n, degree))
    lie = data.draw(lie_series(n, degree))
    cyc = tr_project(word - word.homogeneous(0))
    for s, kind in ((lie, "lie"), (word, "assoc"), (cyc, "cyclic")):
        assert serialize.decode_series(serialize.encode_series(s), kind, n=n) == s
    u = TDer([data.draw(lie_series(n, degree)) for _ in range(n)])
    assert serialize.decode_tder(serialize.encode_tder(u)) == u
    g = taut_exp(u)
    # with the log certificate, and without it (the images are then checked)
    for h in (g, TAutElem(g.images)):
        assert serialize.decode_taut(serialize.encode_taut(h)) == h


@pytest.mark.parametrize("names, n", [(["x5"], 5), (["x3"], 5), (["x2", "x1x7"], 7),
                                      (["", "x12x1"], 12)])
def test_numbered_names_imply_five_or_more_letters(names, n):
    doc = {"degreeN": 3, "terms": [{"word": w, "coeff": "1/2"} for w in names]}
    s = serialize.decode_series(doc, "assoc")
    assert s.alphabet == Alphabet(n)
    assert serialize.encode_series(s) == doc


@pytest.mark.parametrize("names", [["x0"], ["x", "x5"], ["x5y"]])
def test_malformed_numbered_names_rejected(names):
    doc = {"degreeN": 3, "terms": [{"word": w, "coeff": "1/1"} for w in names]}
    with pytest.raises(ValueError, match="cannot parse word"):
        serialize.decode_series(doc, "assoc")


def test_flags_encoding():
    x = LieSeries.generator(A2, 3, 0)
    y = LieSeries.generator(A2, 3, 1)
    doc = serialize.encode_flags(classify(TDer([y, x])))
    assert doc["special"] is True and doc["krv"] is True
    assert doc["witness_degree"] is None


def test_graph_roundtrip():
    g = KGraph(2, [(1, 2), (1, "g1"), (2, "g1"), (2, "g2")])
    assert serialize.decode_graph(serialize.encode_graph(g)) == g


def test_encode_value_recurses():
    doc = serialize.encode_value({"a": [Fraction(1, 2), 3], "b": Fraction(-1)})
    assert doc == {"a": ["1/2", 3], "b": "-1/1"}
