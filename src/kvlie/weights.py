"""Angle maps and numerical graph weights.

This is the only module that touches floating point.  Weights are
2n-dimensional integrals of wedge products of angle differentials over
upper half-plane configurations, with the two ground points gauge-fixed
at 0 and 1.  The closed-form example integral is done by adaptive
quadrature, generic small graphs by importance-sampled Monte Carlo.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate

from .graphs import GROUNDS, KGraph

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
    return cmath.phase((q - p) / (q - p.conjugate()))


def angle_gradient(p: complex, q: complex,
                   kind: str = "hyperbolic") -> Tuple[float, float, float, float]:
    """Partials (d/dpx, d/dpy, d/dqx, d/dqy) of the angle, in closed form.

    A coordinate t moving w by dw/dt moves arg(w) by Im((dw/dt) / w).  The
    hyperbolic angle is arg(w1) - arg(w2) with w1 = q - p, w2 = q - conj(p)
    (these are the rows ``_angle_rows`` fills in); the euclidean one is
    arg(w1) alone.  For p on the real axis w1 = w2, so d/dpx, d/dqx and
    d/dqy vanish exactly, while d/dpy = -2 Re(1/w1) does not.
    """
    angle(p, q, kind)  # the same domain checks
    p = complex(p)
    q = complex(q)
    z1 = 1.0 / (q - p)
    z2 = 1.0 / (q - p.conjugate()) if kind == "hyperbolic" else 0j
    return (z2.imag - z1.imag, -z1.real - z2.real,
            z1.imag - z2.imag, z1.real - z2.real)


def example_weight_quadrature(tolerance: float = 1e-10) -> WeightEstimate:
    """The closed-form one-form -(log(1-s)/s + log(s)/(1-s))/(8 pi^2)
    integrated over (0,1); the exact value is 1/24."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

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
    which = rng.choice(len(_MIX), size=count, p=[w for w, _c, _k in _MIX])
    theta = rng.uniform(0.0, math.pi, size=count)
    r = np.empty(count)
    centers = np.empty(count)
    for idx, (_w, center, kind) in enumerate(_MIX):
        mask = which == idx
        k = int(mask.sum())
        if not k:
            continue
        centers[mask] = center
        if kind == "disk":
            r[mask] = rng.uniform(0.0, _DISK_RADIUS, size=k)
        else:
            r[mask] = np.abs(rng.standard_cauchy(size=k))
    return centers + r * np.cos(theta) + 1j * r * np.sin(theta)


def _proposal_density(z: np.ndarray) -> np.ndarray:
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


def _angle_rows(z: np.ndarray, edges: Sequence, n: int) -> np.ndarray:
    """Jacobian of the edge angles with respect to the 2n aerial
    coordinates (x_1, y_1, ..., x_n, y_n), per sample.

    z has shape (batch, n); the result has shape (batch, 2n, 2n).
    """
    batch = z.shape[0]
    mat = np.zeros((batch, 2 * n, 2 * n))
    ground_pos = {"g1": 0.0, "g2": 1.0}
    for row, (src, tgt) in enumerate(edges):
        p = z[:, src - 1]
        q = (np.full(batch, ground_pos[tgt]) if tgt in GROUNDS
             else z[:, tgt - 1])
        w1 = q - p
        w2 = q - np.conj(p)
        a1 = 1.0 / (w1.real ** 2 + w1.imag ** 2)
        a2 = 1.0 / (w2.real ** 2 + w2.imag ** 2)
        pi = 2 * (src - 1)
        mat[:, row, pi] += w1.imag * a1 - w2.imag * a2
        mat[:, row, pi + 1] += -w1.real * a1 - w2.real * a2
        if tgt not in GROUNDS:
            qi = 2 * (tgt - 1)
            mat[:, row, qi] += -w1.imag * a1 + w2.imag * a2
            mat[:, row, qi + 1] += w1.real * a1 - w2.real * a2
    return mat


def weight_montecarlo(graph: KGraph, samples: int = 1_000_000,
                      seed: int = 0, streams: int = 1,
                      batch: int = 200_000,
                      max_rejection: float = 0.01) -> WeightEstimate:
    """Importance-sampled estimate of the graph weight.

    Ground vertices sit at 0 and 1 (the scaling/translation gauge).
    Deterministic for a fixed (seed, streams) pair; the sample budget is
    split evenly over independent child seed streams and recombined.
    """
    if graph.n > 2:
        raise ValueError("Monte Carlo weights are limited to n <= 2")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= streams <= samples:
        raise ValueError(
            f"need 1 <= streams <= samples, got {streams} streams for {samples} samples")
    n = graph.n
    norm = ORIENTATION_SIGN / TWO_PI ** (2 * n)
    children = np.random.SeedSequence(seed).spawn(streams)
    total = 0.0
    total_sq = 0.0
    kept = 0
    rejected = 0
    per_stream = samples // streams
    for child in children:
        rng = np.random.default_rng(child)
        todo = per_stream
        while todo > 0:
            k = min(batch, todo)
            todo -= k
            z = _sample_points(rng, k * n).reshape(k, n)
            dens = np.prod(_proposal_density(z), axis=1)
            det = np.linalg.det(_angle_rows(z, graph.edges, n))
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = norm * det / dens
            good = np.isfinite(vals)
            rejected += int(k - good.sum())
            vals = vals[good]
            kept += vals.size
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
    used = kept + rejected
    rate = rejected / used if used else 1.0
    if rate > max_rejection:
        raise RuntimeError(
            f"degenerate sample rate {rate:.4f} above threshold {max_rejection}")
    mean = total / kept
    var = max(total_sq / kept - mean * mean, 0.0)
    stderr = math.sqrt(var / kept)
    return WeightEstimate(value=mean, stderr=stderr, samples=kept,
                          method="monte-carlo", seed=seed,
                          rejection_rate=rate)
