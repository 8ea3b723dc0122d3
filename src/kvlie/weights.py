"""Angle maps and numerical graph weights.

This is the only module that touches floating point.  Weights are
2n-dimensional integrals of wedge products of angle differentials over
upper half-plane configurations, with the two ground points gauge-fixed
at 0 and 1.  The closed-form example integral is done by adaptive
quadrature, generic small graphs by importance-sampled Monte Carlo.
numpy and scipy are imported on first use, inside the functions that
call them, so the exact layers and the CLI start without them.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .graphs import GROUNDS, KGraph

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# Global orientation of the configuration-space volume, calibrated once
# against the two anchors (1/2 for the one-vertex graph, 1/24 for the
# closed-form example) and frozen.
ORIENTATION_SIGN = 1.0


@dataclass
class WeightEstimate:
    value: float
    stderr: Optional[float]
    samples: int
    method: str
    tolerance: Optional[float] = None
    seed: Optional[int] = None
    rejection_rate: float = 0.0


def angle(p: complex, q: complex, kind: str = "hyperbolic") -> float:
    """Angle map between two configuration points.

    hyperbolic: arg((q - p)/(q - conj(p))) on the closed upper half
    plane; euclidean: plain arg(q - p).
    """
    p = complex(p)
    q = complex(q)
    if p == q:
        raise ValueError("angle needs distinct points")
    if kind == "euclidean":
        return cmath.phase(q - p)
    if kind != "hyperbolic":
        raise ValueError(f"unknown angle kind {kind!r}")
    if p.imag < 0 or q.imag < 0:
        raise ValueError("hyperbolic angle lives on the closed upper half plane")
    if q == p.conjugate():
        raise ValueError("angle needs distinct points")
    # scaled by a power of two from the larger difference, which is exact,
    # so the division cannot overflow
    w1, w2 = q - p, q - p.conjugate()
    e = -math.frexp(max(abs(w2.real), abs(w2.imag)))[1]
    return cmath.phase(complex(math.ldexp(w1.real, e), math.ldexp(w1.imag, e))
                       / complex(math.ldexp(w2.real, e), math.ldexp(w2.imag, e)))


def _angle_partials(p, q, hyperbolic: bool = True):
    """Closed-form partials (d/dpx, d/dpy, d/dqx, d/dqy) of the angle, on
    complex scalars or elementwise on complex arrays.

    A coordinate t moving w by dw/dt moves arg(w) by Im((dw/dt) / w).  The
    hyperbolic angle is arg(w1) - arg(w2) with w1 = q - p, w2 = q - conj(p);
    the euclidean one is arg(w1) alone.  For p on the real axis w1 = w2, so
    d/dpx, d/dqx and d/dqy vanish exactly, while d/dpy = -2 Re(1/w1) does not.
    """
    i1, r1 = _over_norm(q - p)
    i2, r2 = _over_norm(q - p.conjugate()) if hyperbolic else (0.0, 0.0)
    return i1 - i2, -r1 - r2, i2 - i1, r1 - r2


def _over_norm(w):
    """(Im w, Re w) / |w|^2, which is (-Im(1/w), Re(1/w))."""
    a = 1.0 / (w.real ** 2 + w.imag ** 2)
    return w.imag * a, w.real * a


def angle_gradient(p: complex, q: complex,
                   kind: str = "hyperbolic") -> Tuple[float, float, float, float]:
    """Partials (d/dpx, d/dpy, d/dqx, d/dqy) of the angle, in closed form;
    they divide by |q - p|^2 (and the larger |q - conj(p)|^2), so points
    where that underflows to 0 are refused."""
    angle(p, q, kind)  # the same domain checks
    w = complex(q) - complex(p)
    if not w.real ** 2 + w.imag ** 2:
        raise ValueError("angle gradient needs points whose squared distance is above 0")
    return _angle_partials(complex(p), complex(q), kind == "hyperbolic")


def example_weight_quadrature(tolerance: float = 1e-10) -> WeightEstimate:
    """The closed-form one-form -(log(1-s)/s + log(s)/(1-s))/(8 pi^2)
    integrated over (0,1); the exact value is 1/24."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    from scipy import integrate

    def integrand(s: float) -> float:
        return -(math.log1p(-s) / s + math.log(s) / (1.0 - s)) / (8.0 * math.pi ** 2)

    value, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=tolerance,
                                   epsrel=tolerance, limit=200)
    if abserr > tolerance:
        raise RuntimeError(
            f"quadrature error estimate {abserr:.3e} above tolerance {tolerance:.3e}")
    return WeightEstimate(value=value, stderr=None, samples=0,
                          method="quadrature", tolerance=tolerance)


# -- Monte Carlo ------------------------------------------------------
#
# Proposal for one aerial point: a three-part mixture adapted to the
# 1/r singularities of the angle differentials at the ground points
# plus a heavy radial tail:
#   - uniform-in-radius half-disk of radius 2 around 0   (density ~ 1/r)
#   - the same around 1
#   - half-Cauchy radius around 1/2                      (tail ~ 1/r^3)

_MIX = ((0.35, 0.0, "disk"), (0.35, 1.0, "disk"), (0.30, 0.5, "cauchy"))
_DISK_RADIUS = 2.0


def _sample_points(rng: np.random.Generator, count: int) -> np.ndarray:
    import numpy as np
    which = rng.choice(len(_MIX), size=count, p=[w for w, _c, _k in _MIX])
    theta = rng.uniform(0.0, math.pi, size=count)
    r = np.empty(count)
    centers = np.empty(count)
    for idx, (_w, center, kind) in enumerate(_MIX):
        mask = which == idx
        k = int(mask.sum())
        centers[mask] = center
        if kind == "disk":
            r[mask] = rng.uniform(0.0, _DISK_RADIUS, size=k)
        else:
            r[mask] = np.abs(rng.standard_cauchy(size=k))
    return centers + r * np.cos(theta) + 1j * r * np.sin(theta)


def _proposal_density(z: np.ndarray) -> np.ndarray:
    import numpy as np
    dens = np.zeros(z.shape, dtype=float)
    for w, center, kind in _MIX:
        r = np.abs(z - center)
        with np.errstate(divide="ignore"):
            if kind == "disk":
                comp = np.where(r < _DISK_RADIUS,
                                1.0 / (math.pi * _DISK_RADIUS * r), 0.0)
            else:
                comp = 2.0 / (math.pi * (1.0 + r * r)) / (math.pi * r)
        dens += w * comp
    return dens


def _angle_det(z: np.ndarray, edges: Sequence, n: int) -> np.ndarray:
    """Per-sample determinant of the Jacobian of the edge angles (rows in edge
    order) in x_1, y_1, ..., x_n, y_n, for z of shape (batch, n), n <= 2.
    blocks[v - 1] maps each row moving with v to its partials along x_v, y_v
    (its only nonzeros); the expansion in 2x2 minors skips absent rows."""
    blocks = [{} for _ in range(n)]
    for row, (src, tgt) in enumerate(edges):
        grounded = tgt in GROUNDS  # g1 sits at 0, g2 at 1
        q = float(GROUNDS.index(tgt)) if grounded else z[:, tgt - 1]
        dpx, dpy, dqx, dqy = _angle_partials(z[:, src - 1], q)
        blocks[src - 1][row] = dpx, dpy
        if not grounded:
            blocks[tgt - 1][row] = dqx, dqy
    if n < 2:
        return _cross(*blocks[0].values()) if n else 1.0
    total = 0.0
    for a, b in itertools.combinations(blocks[0], 2):
        c, d = sorted({0, 1, 2, 3} - {a, b})
        if {c, d} <= blocks[1].keys():
            term = _cross(blocks[0][a], blocks[0][b]) * _cross(blocks[1][c], blocks[1][d])
            total = total + term if (a + b) % 2 else total - term
    return total


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


# samples drawn per array pass, and the largest share of samples with a
# non-finite value an estimate accepts
_BATCH = 200_000
_MAX_REJECTION = 0.01


def weight_montecarlo(graph: KGraph, samples: int = 1_000_000,
                      seed: int = 0, streams: int = 1) -> WeightEstimate:
    """Importance-sampled estimate of the graph weight.

    Ground vertices sit at 0 and 1 (the scaling/translation gauge).
    Deterministic for a fixed (seed, streams) pair; the sample budget is
    split over independent child seed streams, the remainder going one
    each to the first streams, and recombined.
    """
    if graph.n > 2:
        raise ValueError("Monte Carlo weights are limited to n <= 2")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= streams <= samples:
        raise ValueError(
            f"need 1 <= streams <= samples, got {streams} streams for {samples} samples")
    import numpy as np
    n = graph.n
    norm = ORIENTATION_SIGN / TWO_PI ** (2 * n)
    children = np.random.SeedSequence(seed).spawn(streams)
    total = 0.0
    total_sq = 0.0
    kept = 0
    per_stream, extra = divmod(samples, streams)
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        todo = per_stream + (index < extra)
        while todo > 0:
            k = min(_BATCH, todo)
            todo -= k
            z = _sample_points(rng, k * n).reshape(k, n)
            dens = np.prod(_proposal_density(z), axis=1)
            det = _angle_det(z, graph.edges, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = norm * det / dens
            vals = vals[np.isfinite(vals)]
            kept += vals.size
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
    rate = (samples - kept) / samples
    if rate > _MAX_REJECTION:
        raise RuntimeError(
            f"degenerate sample rate {rate:.4f} above threshold {_MAX_REJECTION}")
    mean = total / kept
    var = max(total_sq / kept - mean * mean, 0.0)
    stderr = math.sqrt(var / kept)
    return WeightEstimate(value=mean, stderr=stderr, samples=kept,
                          method="monte-carlo", seed=seed,
                          rejection_rate=rate)
