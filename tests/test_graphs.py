"""Admissible graphs, their enumeration, symbols, and multiplicities."""
from fractions import Fraction
from itertools import product

import pytest

from kvlie.cyclic import tr_project
from kvlie.graphs import (KGraph, enumerate_lie_graphs, enumerate_wheel_graphs,
                          graph_symbol)
from kvlie.lie import LieSeries
from kvlie.words import Alphabet

A2 = Alphabet(2)


def test_constructor_rejects_bad_graphs():
    with pytest.raises(ValueError):
        KGraph(1, [(1, 5), (1, "g1")])  # unknown vertex
    with pytest.raises(ValueError):
        KGraph(1, [("g1", 1), (1, "g2")])  # edge out of a ground
    with pytest.raises(ValueError):
        KGraph(1, [(1, 1), (1, "g1")])  # loop
    with pytest.raises(ValueError):
        KGraph(1, [(1, "g1"), (1, "g1")])  # repeated pair
    with pytest.raises(ValueError):
        KGraph(2, [(1, "g1"), (1, "g2"), (2, "g1")])  # out-degree 1 at 2
    with pytest.raises(ValueError):
        KGraph(1, [(1, "g1"), (1, "g2")], m=3)


def brute_tree_count(n):
    """Independent count of geometric binary trees with n internal vertices.

    Ordered trees with 2-colored leaves are generated recursively and
    deduplicated by a canonical form that sorts children, then trees with
    two equal leaf children at some vertex (a doubled edge) are removed.
    """
    def trees(k):
        if k == 0:
            return [("x",), ("y",)]
        out = set()
        for a in range(k):
            for left in trees(a):
                for right in trees(k - 1 - a):
                    out.add(tuple(sorted((left, right), key=repr)) + ("n",))
        return sorted(out, key=repr)

    def doubled(t):
        if len(t) == 1:
            return False
        left, right = t[0], t[1]
        if left == right and len(left) == 1:
            return True
        return doubled(left) or doubled(right)

    return sum(1 for t in trees(n) if not doubled(t))


def test_lie_counts_match_oracle():
    for n in (1, 2, 3):
        assert len(enumerate_lie_graphs(n)) == brute_tree_count(n)


def test_lie_counts_and_zero_flags():
    counts = {n: enumerate_lie_graphs(n) for n in (1, 2, 3, 4)}
    assert [len(counts[n]) for n in (1, 2, 3, 4)] == [1, 2, 5, 12]
    assert [sum(1 for g, _s, _m in counts[n] if g.zero_symbol)
            for n in (1, 2, 3, 4)] == [0, 0, 1, 2]


def test_lie_graphs_revalidate():
    for n in (1, 2, 3, 4):
        for g, s, m in enumerate_lie_graphs(n):
            rebuilt = KGraph(g.graph.n, g.graph.edges)  # re-runs all checks
            assert rebuilt == g.graph
            assert len(g.graph.edges) == 2 * n
            assert m >= 1
            if s:
                assert {len(w) for w in s.to_assoc().coeffs} == {n + 1}


def test_single_vertex_graph():
    [(g, s, m)] = enumerate_lie_graphs(1)
    assert g.graph.edges == ((1, "g1"), (1, "g2"))
    x = LieSeries.generator(A2, 2, 0)
    y = LieSeries.generator(A2, 2, 1)
    assert s == x.bracket(y)
    assert m == 1


def test_three_vertex_anchor():
    # [[x,[x,y]],y] appears with multiplicity 1; the symmetric tree with
    # two identical bracket subtrees has symbol 0 and multiplicity 2
    x = LieSeries.generator(A2, 4, 0)
    y = LieSeries.generator(A2, 4, 1)
    want = x.bracket(x.bracket(y)).bracket(y)
    triples = enumerate_lie_graphs(3)
    assert sum(1 for _g, s, m in triples if s == want and m == 1) == 2
    zeros = [(g, m) for g, s, m in triples if g.zero_symbol]
    assert len(zeros) == 1 and zeros[0][1] == 2


def test_wheel_enumeration_small():
    assert enumerate_wheel_graphs(1) == []
    two = enumerate_wheel_graphs(2)
    assert len(two) == 3
    symbols = {}
    for w, s, m in two:
        assert w.cycle_length == 2
        symbols[str(s)] = m
    x = LieSeries.generator(A2, 2, 0)
    y = LieSeries.generator(A2, 2, 1)
    assert symbols[str(tr_project(x.to_assoc() * x.to_assoc()))] == 2
    assert symbols[str(tr_project(x.to_assoc() * y.to_assoc()))] == 1
    assert symbols[str(tr_project(y.to_assoc() * y.to_assoc()))] == 2


def test_wheel_five_vertices():
    wheels = enumerate_wheel_graphs(5)
    assert len(wheels) == 38
    # necklace of two bare y spokes, one bracket spoke, one bare x spoke
    x = LieSeries.generator(A2, 5, 0)
    y = LieSeries.generator(A2, 5, 1)
    want = tr_project(y.to_assoc() * y.to_assoc()
                      * x.bracket(y).to_assoc() * x.to_assoc())
    assert any(s == want and m == 1 for _w, s, m in wheels)
    # a pure k-wheel with identical spokes has full rotational symmetry
    pure = {str(s): m for w, s, m in wheels if w.cycle_length == 5}
    xa = x.to_assoc()
    x5 = xa * xa * xa * xa * xa
    assert pure[str(tr_project(x5))] == 5
    assert pure[str(tr_project(xa * xa * xa * xa * y.to_assoc()))] == 1


def test_wheel_graphs_revalidate():
    for n in (2, 3, 4):
        for w, s, _m in enumerate_wheel_graphs(n):
            rebuilt = KGraph(w.graph.n, w.graph.edges)
            assert rebuilt == w.graph
            assert len(w.graph.edges) == 2 * n
            if s:
                assert {len(word) for word in s.coeffs} == {n}


def test_graph_symbol_reads_back_enumerated_symbols():
    for n in (1, 2, 3):
        for g, s, _m in enumerate_lie_graphs(n):
            assert graph_symbol(g.graph) == s
        for w, s, _m in enumerate_wheel_graphs(n) if n > 1 else []:
            assert graph_symbol(w.graph) == s


def with_edge_order(g, order):
    """The graph g with its edges listed in the given order."""
    return KGraph(g.n, tuple(g.edges[i] for i in order), g.m)


def test_graph_symbol_edge_swap_flips_sign():
    [(g, s, _m)] = enumerate_lie_graphs(1)
    swapped = with_edge_order(g.graph, [1, 0])
    assert graph_symbol(swapped) == -s
    with pytest.raises(ValueError):  # a repeated edge
        with_edge_order(g.graph, [0, 0])
