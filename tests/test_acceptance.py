"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints a single summary line so the transcript shows the
status of every criterion at a glance. Tolerances and runtime budgets
are pinned in the assertions.
"""
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from kvlie.automorphisms import (inner_automorphism, r_element, taut_exp,
                                 taut_log)
from kvlie.cyclic import duflo_series, CycSeries
from kvlie.derivations import (BraidGenerator, TDer, braid_embed, classify,
                               divergence)
from kvlie.graphs import KGraph, enumerate_lie_graphs, enumerate_wheel_graphs
from kvlie.lie import LieSeries, bch_xy
from kvlie.solvers import check_associator_axioms, solve_associator, solve_kv
from kvlie.cyclic import tr_project
from kvlie.weights import example_weight_quadrature, weight_montecarlo
from kvlie.words import Alphabet

from test_lie import oracle_bch, rand_lie

A2 = Alphabet(2)


def report(number, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {label}: {status}")
    assert ok, f"criterion {number} ({label})"


def test_01_bch_matches_word_algebra_oracle():
    start = time.monotonic()
    got = dict(bch_xy(6).to_assoc().coeffs)
    ok = got == oracle_bch(6)
    elapsed = time.monotonic() - start
    report(1, "exact BCH against independent word-algebra log at degree 6",
           ok and elapsed < 10.0)


def test_02_divergence_is_a_cocycle():
    start = time.monotonic()
    rng = random.Random(1002)
    ok = True
    for _ in range(50):
        u = TDer([rand_lie(rng, A2, 5) for _ in range(2)])
        v = TDer([rand_lie(rng, A2, 5) for _ in range(2)])
        lhs = divergence(u.bracket(v))
        rhs = u.apply(divergence(v)) - v.apply(divergence(u))
        ok = ok and lhs == rhs
    elapsed = time.monotonic() - start
    report(2, "divergence cocycle identity on 50 random pairs at degree 5",
           ok and elapsed < 30.0)


def test_03_inner_derivation_is_krv():
    x = LieSeries.generator(A2, 4, 0)
    y = LieSeries.generator(A2, 4, 1)
    flags = classify(TDer([y, x]))
    report(3, "the inner derivation (y, x) is special with zero divergence",
           flags.special and flags.krv)


def test_04_duflo_degree_two_anchor():
    duf = duflo_series(4)
    want = CycSeries(A2, 4, {(0, 1): Fraction(-1, 24)})
    report(4, "Duflo density opens with -(1/24) tr(xy)",
           duf.homogeneous(2) == want)


def test_05_transport_element_swaps_bch():
    degree = 6
    r = r_element(degree)
    ch = bch_xy(degree)
    x = LieSeries.generator(A2, degree, 0)
    y = LieSeries.generator(A2, degree, 1)
    report(5, "R carries ch(x,y) to ch(y,x) exactly at degree 6",
           r.apply(ch) == ch.substitute([y, x]))


def test_06_inner_derivation_exponentiates_to_conjugation():
    degree = 6
    x = LieSeries.generator(A2, degree, 0)
    y = LieSeries.generator(A2, degree, 1)
    lhs = taut_exp(TDer([y, x]))
    rhs = inner_automorphism(-(x + y))
    report(6, "exp of (y, x) is conjugation by e^{x+y} at degree 6",
           lhs == rhs)


def test_07_braid_relations_and_centrality():
    degree = 5
    ok = True
    for n in (3, 4):
        t = {(i, j): braid_embed(BraidGenerator(i, j, n), degree)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        pairs = list(t)
        for a in pairs:
            for b in pairs:
                if set(a).isdisjoint(b):
                    ok = ok and not t[a].bracket(t[b])
        for i, j, k in [(i, j, k) for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)
                        for k in range(j + 1, n + 1)]:
            ok = ok and not t[(i, j)].bracket(t[(i, k)] + t[(j, k)])
    t3 = {p: braid_embed(BraidGenerator(*p, 3), degree)
          for p in [(1, 2), (1, 3), (2, 3)]}
    center = t3[(1, 2)] + t3[(1, 3)] + t3[(2, 3)]
    ok = ok and all(not center.bracket(u) for u in t3.values())
    report(7, "braid locality, 3-term relations and the central sum at "
              "arities 3 and 4", ok)


def test_08_kv_solver_degree_four():
    start = time.monotonic()
    f, rep = solve_kv(4, gauge="symmetric")
    elapsed = time.monotonic() - start
    log = taut_log(f)
    deg1_ok = (
        log.components[0].homogeneous(1) ==
        LieSeries.generator(A2, 4, 1).scale(Fraction(-1, 4))
        and log.components[1].homogeneous(1) ==
        LieSeries.generator(A2, 4, 0).scale(Fraction(1, 4)))
    report(8, "degree-4 transport solve: zero residual, (-y/4, x/4) "
              "leading log, J inside the tr-power subspace",
           rep.all_zero() and rep.notes["defining_residual_zero"]
           and deg1_ok and rep.notes["j_in_h_subspace"]
           and elapsed < 60.0)


def test_09_associator_degree_four():
    start = time.monotonic()
    cand, rep = solve_associator(4, parity="even")
    t12 = braid_embed(BraidGenerator(1, 2, 3), 5)
    t23 = braid_embed(BraidGenerator(2, 3, 3), 5)
    want2 = t12.bracket(t23).scale(Fraction(1, 24))
    got2 = TDer([c.homogeneous(2) for c in cand.log.components])
    deg3_zero = not TDer([c.homogeneous(3) for c in cand.log.components])
    axioms = check_associator_axioms(cand, "all", degree=4)
    elapsed = time.monotonic() - start
    report(9, "even degree-4 associator: (1/24)[t12,t23] head, zero "
              "degree 3, all axioms re-verified",
           rep.all_zero() and got2 == want2 and deg3_zero
           and axioms.all_zero()
           and all(axioms.notes[k] for k in
                   ("duality", "pentagon", "hexagon+", "hexagon-"))
           and elapsed < 300.0)


def test_10_weights_quadrature_and_monte_carlo():
    start = time.monotonic()
    quad = example_weight_quadrature(tolerance=1e-8)
    quad_elapsed = time.monotonic() - start
    quad_ok = abs(quad.value - 1.0 / 24.0) < 1e-8 and quad_elapsed < 1.0
    start = time.monotonic()
    est = weight_montecarlo(KGraph(1, [(1, "g1"), (1, "g2")]),
                            samples=1_000_000, seed=0)
    mc_elapsed = time.monotonic() - start
    mc_ok = (abs(est.value - 0.5) <= 3.0 * est.stderr
             and est.stderr < 0.01 and mc_elapsed < 60.0)
    report(10, "closed-form weight 1/24 by quadrature; Monte Carlo "
               "one-vertex weight within 3 sigma of 1/2", quad_ok and mc_ok)


def test_11_graph_enumeration_revalidates_with_anchor_symbols():
    ok = True
    for n in (1, 2, 3, 4):
        for g, s, m in enumerate_lie_graphs(n):
            ok = ok and KGraph(g.graph.n, g.graph.edges) == g.graph
        for w, s, m in (enumerate_wheel_graphs(n) if n >= 2 else []):
            ok = ok and KGraph(w.graph.n, w.graph.edges) == w.graph
    x = LieSeries.generator(A2, 4, 0)
    y = LieSeries.generator(A2, 4, 1)
    tree_anchor = x.bracket(x.bracket(y)).bracket(y)
    ok = ok and any(s == tree_anchor
                    for _g, s, _m in enumerate_lie_graphs(3))
    x5 = LieSeries.generator(A2, 5, 0)
    y5 = LieSeries.generator(A2, 5, 1)
    wheel_anchor = tr_project(y5.to_assoc() * y5.to_assoc()
                              * x5.bracket(y5).to_assoc() * x5.to_assoc())
    ok = ok and any(s == wheel_anchor
                    for _w, s, _m in enumerate_wheel_graphs(5))
    report(11, "every enumerated graph re-passes admissibility; tree and "
               "wheel anchor symbols reproduced", ok)


def test_12_cli_byte_determinism():
    graph_doc = json.dumps({"n": 1, "m": 2,
                            "edges": [[1, "g1"], [1, "g2"]]})
    cases = [
        (["bch", "--degree", "5"], None),
        (["duflo", "--degree", "5"], None),
        (["braid", "--i", "1", "--j", "2", "--strands", "3"], None),
        (["kv-solve", "--degree", "3"], None),
        (["assoc-solve", "--degree", "2"], None),
        (["graphs", "--type", "lie", "--count", "3"], None),
        (["graphs", "--type", "wheel", "--count", "3"], None),
        (["weight", "example", "--tol", "1e-8"], None),
        (["weight", "mc", "--input", "-", "--samples", "50000",
          "--seed", "0"], graph_doc),
        (["angle", "--p", "1j", "--q", "0.5+0.5j"], None),
    ]
    ok = True
    for args, stdin in cases:
        runs = [subprocess.run([sys.executable, "-m", "kvlie.cli"] + args,
                               input=stdin, capture_output=True, text=True)
                for _ in range(2)]
        ok = ok and runs[0].returncode == 0 \
            and runs[0].stdout == runs[1].stdout and runs[0].stdout
    report(12, "byte-identical JSON on repeated runs of every exercised "
               "verb", bool(ok))
