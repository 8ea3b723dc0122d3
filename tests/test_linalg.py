"""Exact rational linear algebra."""
import random
from fractions import Fraction

import pytest

from kvlie import linalg


def rand_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def matvec(a, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


def test_solve_affine_consistency():
    rng = random.Random(41)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x_true = [Fraction(rng.randint(-3, 3)) for _ in a[0]]
        b = matvec(a, x_true)
        sol, basis = linalg.solve_affine(a, b)
        assert sol is not None
        assert matvec(a, sol) == b
        for v in basis:
            assert matvec(a, v) == [Fraction(0)] * len(a)
        assert basis == linalg.nullspace(a)


def test_solve_affine_inconsistent():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(1), Fraction(2)]
    sol, basis = linalg.solve_affine(a, b)
    assert sol is None
    assert basis == linalg.nullspace(a)
    rng = random.Random(44)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        # the last row is the sum of the first and the previous last, the
        # last entry of b is not
        a.append([u + v for u, v in zip(a[0], a[-1])])
        b = [Fraction(rng.randint(-3, 3)) for _ in a[:-1]]
        b.append(b[0] + b[-1] + 1)
        sol, basis = linalg.solve_affine(a, b)
        assert sol is None
        assert basis == linalg.nullspace(a)


def test_rank_and_nullspace_dimensions():
    rng = random.Random(42)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        assert len(linalg._rref(a)[1]) + len(linalg.nullspace(a)) == cols


def test_min_norm_pick_is_optimal_and_in_set():
    rng = random.Random(43)
    for _ in range(15):
        a = rand_matrix(rng, 2, 4)
        x_true = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        b = matvec(a, x_true)
        sol, basis = linalg.solve_affine(a, b)
        best = linalg.min_norm_pick(sol, basis)
        assert matvec(a, best) == b
        norm = sum(c * c for c in best)
        # perturbing along any kernel direction cannot decrease the norm
        for v in basis:
            for t in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                other = [bi + t * vi for bi, vi in zip(best, v)]
                assert sum(c * c for c in other) >= norm


def test_in_span():
    v1 = [Fraction(1), Fraction(0), Fraction(1)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    coords = linalg.in_span([v1, v2], [Fraction(2), Fraction(3), Fraction(5)])
    assert coords == [Fraction(2), Fraction(3)]
    assert linalg.in_span([v1, v2], [Fraction(0), Fraction(0), Fraction(1)]) is None


def test_solve_unique_rejects_underdetermined():
    a = [[Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError):
        linalg.solve_unique(a, [Fraction(1)])
