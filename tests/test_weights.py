"""Angle maps and numeric graph weights (floats live only here)."""
import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from kvlie.graphs import GROUNDS, KGraph
from kvlie.weights import (_angle_det, angle, angle_gradient,
                           example_weight_quadrature, weight_montecarlo)

from test_graphs import with_edge_order


def test_angle_anchors():
    # points stacked on the imaginary axis: the hyperbolic angle vanishes
    assert angle(1j, 2j) == pytest.approx(0.0, abs=1e-12)
    assert angle(0.0, 1.0, kind="euclidean") == pytest.approx(0.0, abs=1e-12)
    assert angle(0.0, 1 + 1j, kind="euclidean") == pytest.approx(math.pi / 4)


def test_angle_invariance_under_scaling_and_translation():
    # z -> a z + b with a > 0, b real preserves the hyperbolic angle
    p, q = 0.3 + 0.7j, 1.1 + 0.2j
    base = angle(p, q)
    for a, b in ((2.0, 0.0), (0.5, 3.0), (7.0, -1.25)):
        assert angle(a * p + b, a * q + b) == pytest.approx(base, abs=1e-12)


def test_angle_domain_errors():
    with pytest.raises(ValueError):
        angle(1j, 1j)
    with pytest.raises(ValueError):
        angle(1j, -1j)  # conjugate pair degenerates
    with pytest.raises(ValueError):
        angle(-1j, 1.0)  # below the real axis
    with pytest.raises(ValueError):
        angle(0.0, 1.0, kind="spherical")


def test_gradient_vanishes_for_grounded_source():
    # with p on the real axis the hyperbolic angle is identically zero as
    # a function of q and of real motions of p; only lifting p off the
    # axis changes it, at rate -2 Re(1/q) for p = 0
    dpx, dpy, dqx, dqy = angle_gradient(0.0, 0.4 + 0.8j)
    assert dpx == 0.0 and dqx == 0.0 and dqy == 0.0
    assert dpy == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["hyperbolic", "euclidean"])
def test_gradient_matches_central_difference(kind):
    p, q, h = 0.3 + 0.7j, 1.1 + 0.2j, 1e-6
    want = [(angle(p + dp, q + dq, kind) - angle(p - dp, q - dq, kind)) / (2 * h)
            for dp, dq in ((h, 0), (1j * h, 0), (0, h), (0, 1j * h))]
    assert angle_gradient(p, q, kind) == pytest.approx(want, rel=1e-7)


def test_gradient_matches_closed_form_euclidean():
    # d arg(q - p) / dqx = -Im(q-p)/|q-p|^2, / dqy = Re(q-p)/|q-p|^2
    p, q = 0.2 + 0.1j, 1.0 + 0.9j
    w = q - p
    r2 = abs(w) ** 2
    _dpx, _dpy, dqx, dqy = angle_gradient(p, q, kind="euclidean")
    assert dqx == pytest.approx(-w.imag / r2, rel=1e-4)
    assert dqy == pytest.approx(w.real / r2, rel=1e-4)


def test_quadrature_value():
    est = example_weight_quadrature(tolerance=1e-10)
    assert est.method == "quadrature"
    assert est.value == pytest.approx(1.0 / 24.0, abs=1e-9)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            example_weight_quadrature(tolerance=bad)


def test_quadrature_integrand_pieces():
    # the two logarithmic halves each integrate to pi^2/6 in magnitude
    val, _err = integrate.quad(lambda s: math.log1p(-s) / s, 0.0, 1.0)
    assert val == pytest.approx(-math.pi ** 2 / 6.0, abs=1e-9)
    # and the full integrand is symmetric under s -> 1 - s
    def f(s):
        return math.log1p(-s) / s + math.log(s) / (1.0 - s)
    for s in (0.1, 0.25, 0.4):
        assert f(s) == pytest.approx(f(1.0 - s), abs=1e-12)


def single_edge_graph():
    return KGraph(1, [(1, "g1"), (1, "g2")])


def test_montecarlo_anchor_and_determinism():
    g = single_edge_graph()
    est = weight_montecarlo(g, samples=200_000, seed=7)
    # exact weight of the single aerial vertex graph is 1/2
    assert abs(est.value - 0.5) <= 3.0 * est.stderr
    assert est.stderr < 0.01
    again = weight_montecarlo(g, samples=200_000, seed=7)
    assert again.value == est.value
    assert again.stderr == est.stderr
    other_seed = weight_montecarlo(g, samples=200_000, seed=8)
    assert other_seed.value != est.value


def test_montecarlo_streams_split_is_deterministic():
    g = single_edge_graph()
    a = weight_montecarlo(g, samples=100_000, seed=3, streams=4)
    b = weight_montecarlo(g, samples=100_000, seed=3, streams=4)
    assert a.value == b.value


def test_montecarlo_edge_swap_flips_sign():
    g = single_edge_graph()
    swapped = with_edge_order(g, [1, 0])
    est = weight_montecarlo(g, samples=50_000, seed=5)
    neg = weight_montecarlo(swapped, samples=50_000, seed=5)
    assert neg.value == -est.value


def test_montecarlo_stderr_scaling():
    # quadrupling the sample count should roughly halve the error bar
    g = single_edge_graph()
    small = weight_montecarlo(g, samples=100_000, seed=11)
    large = weight_montecarlo(g, samples=400_000, seed=11)
    ratio = small.stderr / large.stderr
    assert 1.6 < ratio < 2.4


def test_montecarlo_input_validation():
    g = single_edge_graph()
    with pytest.raises(ValueError):
        weight_montecarlo(g, samples=1)
    with pytest.raises(ValueError):
        weight_montecarlo(g, samples=100, streams=0)
    with pytest.raises(ValueError):
        weight_montecarlo(g, samples=100, streams=101)
    big = KGraph(3, [(1, 2), (1, "g1"), (2, 3), (2, "g1"),
                     (3, "g1"), (3, "g2")])
    with pytest.raises(ValueError):
        weight_montecarlo(big)


def admissible_graphs(n):
    """Every graph on n aerial vertices whose vertices each send two edges
    to distinct other vertices, edges in a fixed order."""
    choices = [itertools.combinations([t for t in range(1, n + 1) if t != v]
                                      + list(GROUNDS), 2)
               for v in range(1, n + 1)]
    for targets in itertools.product(*choices):
        yield KGraph(n, [(v, t) for v, pair in enumerate(targets, 1) for t in pair])


def dense_jacobian(z, graph):
    """The edge-angle Jacobian of one configuration, entry by entry."""
    ground = {"g1": 0.0, "g2": 1.0}
    mat = np.zeros((2 * graph.n, 2 * graph.n))
    for row, (src, tgt) in enumerate(graph.edges):
        q = ground[tgt] if tgt in GROUNDS else z[tgt - 1]
        dpx, dpy, dqx, dqy = angle_gradient(z[src - 1], q)
        mat[row, 2 * src - 2:2 * src] = dpx, dpy
        if tgt not in GROUNDS:
            mat[row, 2 * tgt - 2:2 * tgt] = dqx, dqy
    return mat


def test_admissible_graph_counts():
    assert [len(list(admissible_graphs(n))) for n in (0, 1, 2)] == [1, 1, 9]


@pytest.mark.parametrize("graph", [g for n in (1, 2) for g in admissible_graphs(n)],
                         ids=lambda g: repr(g.edges))
def test_angle_det_matches_dense_determinant(graph):
    rng = np.random.default_rng(20)
    z = rng.uniform(-1.0, 2.0, (16, graph.n)) + 1j * rng.uniform(0.05, 2.0, (16, graph.n))
    # every order of the rows, so that vertex 2's edges also come first
    for order in itertools.permutations(range(len(graph.edges))):
        ordered = with_edge_order(graph, order)
        got = _angle_det(z, ordered.edges, graph.n)
        for zs, det in zip(z, got):
            mat = dense_jacobian(zs, ordered)
            hadamard = np.prod(np.linalg.norm(mat, axis=1))
            assert abs(det - np.linalg.det(mat)) <= 1e-12 * hadamard


def test_angle_det_without_aerial_vertices_is_one():
    assert np.all(_angle_det(np.zeros((5, 0), complex), (), 0) == 1.0)


# the anchors of the two-vertex graphs: the trees carry the BCH
# coefficient 1/12, the wheel the Duflo coefficient -1/24
@pytest.mark.parametrize("edges, exact", [
    (((1, "g1"), (1, 2), (2, "g1"), (2, "g2")), 1 / 12),
    (((1, 2), (1, "g2"), (2, "g1"), (2, "g2")), 1 / 12),
    (((1, 2), (1, "g1"), (2, 1), (2, "g2")), -1 / 24),
])
def test_montecarlo_two_vertex_anchors(edges, exact):
    est = weight_montecarlo(KGraph(2, edges), samples=200_000, seed=13, streams=2)
    assert abs(est.value - exact) <= 6.0 * est.stderr


@pytest.mark.parametrize("ground", GROUNDS)
def test_montecarlo_symmetric_wheels_vanish(ground):
    # scaling about the shared ground point fixes all four angles, so the
    # Jacobian is singular at every configuration
    graph = KGraph(2, ((1, 2), (1, ground), (2, 1), (2, ground)))
    est = weight_montecarlo(graph, samples=200_000, seed=13, streams=2)
    assert abs(est.value) <= 1e-12


@pytest.mark.parametrize("samples, streams", [(10, 4), (7, 3), (1001, 2)])
def test_montecarlo_draws_the_whole_budget(samples, streams):
    est = weight_montecarlo(single_edge_graph(), samples=samples, streams=streams)
    assert est.samples + round(est.rejection_rate * samples) == samples
