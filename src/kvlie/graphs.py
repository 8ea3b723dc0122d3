"""Admissible graphs on two ground vertices and their word symbols.

Aerial vertices are numbered 1..n, the two ground vertices are named
"g1" and "g2".  Only the linear graphs matter here: superpositions of
binary-tree graphs (symbol in lie_2) and wheel graphs (symbol in cy_2).
Geometric means unlabeled; canonical forms do the identification.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, List, Tuple, Union

from .cyclic import CycSeries, canonical_rotation, tr_project
from .lie import LieSeries
from .words import Alphabet

GROUNDS = ("g1", "g2")
MAX_VERTICES = 6

Vertex = Union[int, str]
Edge = Tuple[Vertex, Vertex]


@dataclass(frozen=True)
class KGraph:
    """Graph with n aerial vertices, 2 ground vertices, 2n ordered edges."""

    n: int
    edges: Tuple[Edge, ...]
    m: int = 2

    def __post_init__(self):
        if self.m != 2:
            raise ValueError("only two ground vertices are supported")
        if self.n < 0:
            raise ValueError("negative vertex count")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        aerial = set(range(1, self.n + 1))
        allowed = aerial | set(GROUNDS)
        outgoing: Dict[Vertex, int] = {v: 0 for v in aerial}
        seen = set()
        for src, tgt in self.edges:
            if src not in allowed or tgt not in allowed:
                raise ValueError(f"unknown vertex in edge ({src}, {tgt})")
            if src in GROUNDS:
                raise ValueError("edges must not start at a ground vertex")
            if src == tgt:
                raise ValueError(f"loop edge at {src}")
            if (src, tgt) in seen:
                raise ValueError(f"repeated edge ({src}, {tgt})")
            seen.add((src, tgt))
            outgoing[src] += 1
        bad = [v for v, k in outgoing.items() if k != 2]
        if bad:
            raise ValueError(f"aerial vertices {bad} do not have exactly 2 outgoing edges")

    def incoming_counts(self) -> Dict[int, int]:
        counts = {v: 0 for v in range(1, self.n + 1)}
        for _src, tgt in self.edges:
            if isinstance(tgt, int):
                counts[tgt] += 1
        return counts

    def is_linear(self) -> bool:
        """At most one incoming edge per aerial vertex."""
        return all(k <= 1 for k in self.incoming_counts().values())

    def out_edges(self, v: int) -> List[Edge]:
        return [e for e in self.edges if e[0] == v]


# -- binary tree (Lie type) graphs ------------------------------------
#
# Shapes are nested tuples: (0, c) is a leaf attached to ground c in
# {0, 1}; (1, a, b) is an internal vertex with children a <= b in tuple
# order, which is the geometric (unordered-children) canonical form.

Shape = tuple


def _leaf(color: int) -> Shape:
    return (0, color)


def _shape_key(shape: Shape):
    # child order convention: an x leaf sorts before internal vertices,
    # a y leaf after them; this reading matches the usual bracket layout
    # of tree symbols like [x,y] and [[x,[x,y]],y]
    if shape[0] == 0:
        return (0,) if shape[1] == 0 else (2,)
    return (1, _shape_key(shape[1]), _shape_key(shape[2]))


def _node(a: Shape, b: Shape) -> Shape:
    return (1,) + tuple(sorted((a, b), key=_shape_key))


def _has_multiedge(shape: Shape) -> bool:
    """An internal vertex with two same-colored leaf children would carry
    two edges to the same ground vertex."""
    if shape[0] == 0:
        return False
    a, b = shape[1], shape[2]
    if a == b and a[0] == 0:
        return True
    return _has_multiedge(a) or _has_multiedge(b)


def _shape_aut(shape: Shape) -> int:
    if shape[0] == 0:
        return 1
    a, b = shape[1], shape[2]
    swap = 2 if a == b else 1
    return swap * _shape_aut(a) * _shape_aut(b)


@lru_cache(maxsize=None)
def _tree_shapes(n: int) -> frozenset:
    """Geometric leaf-colored binary trees with n internal vertices."""
    if n == 0:
        return frozenset({_leaf(0), _leaf(1)})
    out = set()
    for i in range(n):
        for a in _tree_shapes(i):
            for b in _tree_shapes(n - 1 - i):
                out.add(_node(a, b))
    return frozenset(out)


def _shape_symbol(shape: Shape, degree: int) -> LieSeries:
    alphabet = Alphabet(2)
    if shape[0] == 0:
        return LieSeries.generator(alphabet, degree, shape[1])
    return _shape_symbol(shape[1], degree).bracket(_shape_symbol(shape[2], degree))


def _walk(shape: Shape, edges: List[Edge], last: int) -> Tuple[Vertex, int]:
    """Number the internal vertices of ``shape`` depth-first, root first,
    from ``last + 1``; each vertex appends its two child edges to ``edges``
    consecutively.  Returns the root vertex and the last number used."""
    if shape[0] == 0:
        return GROUNDS[shape[1]], last
    v = last + 1
    slot = len(edges)
    edges.extend([None, None])
    left, last = _walk(shape[1], edges, v)
    right, last = _walk(shape[2], edges, last)
    edges[slot] = (v, left)
    edges[slot + 1] = (v, right)
    return v, last


def _shape_to_graph(shape: Shape) -> KGraph:
    edges: List[Edge] = []
    _root, n = _walk(shape, edges, 0)
    return KGraph(n, tuple(edges))


@dataclass(frozen=True)
class LieGraph:
    graph: KGraph
    shape: Shape
    zero_symbol: bool


def enumerate_lie_graphs(n: int) -> List[Tuple[LieGraph, LieSeries, int]]:
    """All geometric tree graphs with n aerial vertices.

    Returns (graph, symbol, multiplicity) triples; trees whose symbol
    vanishes by antisymmetry are kept with symbol 0 and flagged.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}")
    out = []
    degree = n + 1
    for shape in sorted(_tree_shapes(n)):
        if _has_multiedge(shape):
            continue
        symbol = _shape_symbol(shape, degree)
        out.append((LieGraph(_shape_to_graph(shape), shape, not symbol),
                    symbol, _shape_aut(shape)))
    return out


# -- wheel graphs -----------------------------------------------------


def _rotations(seq: tuple):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def _cycle_symmetry(seq: tuple) -> int:
    return sum(1 for r in _rotations(seq) if r == seq)


@dataclass(frozen=True)
class WheelGraph:
    graph: KGraph
    cycle_length: int
    spokes: Tuple[Shape, ...]
    zero_symbol: bool


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _wheel_to_graph(spokes: Tuple[Shape, ...]) -> KGraph:
    k = len(spokes)
    edges: List[Edge] = []
    n = k
    spoke_targets = []
    for s in spokes:
        target, n = _walk(s, edges, n)
        spoke_targets.append(target)
    cycle_edges: List[Edge] = []
    for i in range(1, k + 1):
        nxt = i % k + 1
        cycle_edges.append((i, nxt))
        cycle_edges.append((i, spoke_targets[i - 1]))
    return KGraph(n, tuple(cycle_edges + edges))


def enumerate_wheel_graphs(n: int) -> List[Tuple[WheelGraph, CycSeries, int]]:
    """All geometric wheel graphs with n aerial vertices.

    The symbol is the trace of the spoke symbols read around the cycle;
    the multiplicity counts graph automorphisms (cycle rotations fixing
    the spoke sequence times the tree symmetries of each spoke).
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}")
    out = []
    alphabet = Alphabet(2)
    for k in range(2, n + 1):
        seen = set()
        for sizes in _compositions(n - k, k):
            pools = []
            for j in sizes:
                pools.append([s for s in sorted(_tree_shapes(j))
                              if not _has_multiedge(s)])
            for spokes in product(*pools):
                key = canonical_rotation(spokes)
                if key in seen:
                    continue
                seen.add(key)
                degree = n
                prod = None
                for s in key:
                    factor = _shape_symbol(s, degree).to_assoc()
                    prod = factor if prod is None else prod * factor
                symbol = tr_project(prod) if prod else CycSeries.zero(alphabet, degree)
                mult = _cycle_symmetry(key)
                for s in key:
                    mult *= _shape_aut(s)
                out.append((WheelGraph(_wheel_to_graph(key), k, key, not symbol),
                            symbol, mult))
    return out


def graph_symbol(graph: KGraph):
    """Symbol of a linear graph in edge-list order.

    For a tree graph the bracket at each vertex takes its children in the
    order of the outgoing edges, so swapping two such edges flips the
    sign.  Wheel symbols are read around the cycle starting from the
    lowest cycle vertex.
    """
    if not graph.is_linear():
        raise ValueError("symbol extraction needs a linear graph")
    incoming = graph.incoming_counts()
    roots = [v for v in range(1, graph.n + 1) if incoming[v] == 0]

    def tree_symbol(v: Vertex, degree: int) -> LieSeries:
        alphabet = Alphabet(2)
        if v in GROUNDS:
            return LieSeries.generator(alphabet, degree, GROUNDS.index(v))
        first, second = graph.out_edges(v)
        return tree_symbol(first[1], degree).bracket(tree_symbol(second[1], degree))

    if len(roots) == 1 and graph.n == sum(
            1 for _ in _tree_vertices(graph, roots[0])):
        return tree_symbol(roots[0], graph.n + 1)
    # one oriented cycle: follow aerial-to-aerial edges
    cycle = _find_cycle(graph)
    if cycle is None:
        raise ValueError("graph is neither a tree nor a wheel")
    prod = None
    degree = graph.n
    for v in cycle:
        nxt = cycle[(cycle.index(v) + 1) % len(cycle)]
        spoke = [e for e in graph.out_edges(v) if e[1] != nxt]
        if len(spoke) != 1:
            raise ValueError("cycle vertex with ambiguous spoke")
        factor = tree_symbol(spoke[0][1], degree).to_assoc()
        prod = factor if prod is None else prod * factor
    return tr_project(prod)


def _tree_vertices(graph: KGraph, root: int):
    stack = [root]
    while stack:
        v = stack.pop()
        if v in GROUNDS:
            continue
        yield v
        for _src, tgt in graph.out_edges(v):
            stack.append(tgt)


def _find_cycle(graph: KGraph):
    """The unique oriented cycle of a linear wheel graph, as a vertex list
    starting from its smallest vertex."""
    on_cycle = [v for v in range(1, graph.n + 1) if _reaches(graph, v, v)]
    if not on_cycle:
        return None
    start = min(on_cycle)
    cycle = [start]
    v = start
    while True:
        nexts = [tgt for _src, tgt in graph.out_edges(v)
                 if isinstance(tgt, int) and tgt in on_cycle]
        if len(nexts) != 1:
            raise ValueError("malformed wheel cycle")
        v = nexts[0]
        if v == start:
            return cycle
        cycle.append(v)


def _reaches(graph: KGraph, v: int, target: int) -> bool:
    """Is target reachable from v along one or more aerial edges?"""
    stack = [tgt for _src, tgt in graph.out_edges(v) if isinstance(tgt, int)]
    visited = set()
    while stack:
        w = stack.pop()
        if w == target:
            return True
        if w in visited:
            continue
        visited.add(w)
        for _src, tgt in graph.out_edges(w):
            if isinstance(tgt, int):
                stack.append(tgt)
    return False
