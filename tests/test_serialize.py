"""JSON encoding round-trips for every serialized object kind."""
import random
from fractions import Fraction

import pytest

from kvlie import serialize
from kvlie.derivations import TDer, classify
from kvlie.graphs import KGraph
from kvlie.lie import LieSeries
from kvlie.words import Alphabet

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
