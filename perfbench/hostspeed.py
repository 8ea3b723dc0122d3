"""Host-speed reference: a fixed piece of work timed next to every request.

On a shared host the speed of the machine drifts by a third and more within
minutes, as other tenants load it, and a whole run can fall into a slow
phase.  The benchmark times this reference just before and just after each
request, outside the request's timed window, and reports the request's
latency scaled to a host on which the reference takes ``NOMINAL_S``:

    corrected = latency * NOMINAL_S / mean(reference before, reference after)

kvlie never runs in the reference, so a change to kvlie moves the corrected
figures as much as the raw ones, while a change of host speed moves the
reference as much as the request and cancels.  The reference mixes the two
kinds of work kvlie does: products of sparse series with ``Fraction``
coefficients held in dicts, and vectorised numpy floating point.  The
garbage collector is off while it runs, so its time does not depend on how
many objects kvlie keeps alive.
"""
from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# Time of one reference on the nominal host.  A round figure: the median
# reference of a 30-second run took 0.008 s to 0.013 s on the 2-vCPU host
# the benchmark was defined on, as the host's speed drifted.
NOMINAL_S = 0.010

_SERIES_TERMS = 60
_SERIES_DEGREE = 9
_ARRAY_SHAPE = (50_000, 4)


def _series(rng: random.Random) -> dict:
    return {tuple(rng.randrange(2) for _ in range(rng.randint(1, 6))):
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            for _ in range(_SERIES_TERMS)}


class Reference:
    """The reference work, with its fixed inputs."""

    def __init__(self):
        rng = random.Random(1)
        self._a = _series(rng)
        self._b = _series(rng)

    def _series_product(self) -> dict:
        out = {}
        for ka, ca in self._a.items():
            for kb, cb in self._b.items():
                key = ka + kb
                if len(key) <= _SERIES_DEGREE:
                    out[key] = out.get(key, 0) + ca * cb
        return out

    @staticmethod
    def _array_work() -> float:
        import numpy
        x = numpy.random.default_rng(7).random(_ARRAY_SHAPE)
        return float(numpy.sum(numpy.prod(numpy.sin(x), axis=1)))

    def time(self, repeat: int = 1) -> float:
        """Seconds one reference takes now; the median of ``repeat`` runs."""
        samples = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeat):
                start = time.perf_counter()
                self._series_product()
                self._array_work()
                samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(samples)


def corrected(latency: float, before: float, after: float) -> float:
    """``latency`` scaled to the nominal host, given the reference times
    measured just before and just after it."""
    return latency * NOMINAL_S / ((before + after) / 2)
