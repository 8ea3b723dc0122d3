"""Exact linear algebra over the rationals (dense, desk scale).

Everything here works on lists of lists of Fraction.  Systems stay small
(a few hundred rows at most), so plain Gaussian elimination is fine.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def _rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _free_basis(rref: Matrix, pivots: Sequence[int], n: int) -> List[Vector]:
    """Kernel basis of the first n columns of an RREF, one vector per free
    column.  Pivots at column n or beyond (an augmented column) are ignored:
    the first n columns of the RREF of [A | b] are the RREF of A."""
    pivots = [c for c in pivots if c < n]
    basis: List[Vector] = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][fc]
        basis.append(vec)
    return basis


def solve_affine(a: Matrix, b: Vector) -> Tuple[Optional[Vector], List[Vector]]:
    """All solutions of A x = b as (particular, nullspace basis).

    Returns (None, basis) when the system is inconsistent.
    """
    n = len(a[0]) if a else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    rref, pivots = _rref(aug)
    basis = _free_basis(rref, pivots, n)
    if n in pivots:
        return None, basis
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = rref[r][n]
    return particular, basis


def nullspace(a: Matrix) -> List[Vector]:
    n = len(a[0]) if a else 0
    rref, pivots = _rref(a)
    return _free_basis(rref, pivots, n)


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a square system with a unique solution."""
    sol, basis = solve_affine(a, b)
    if sol is None or basis:
        raise ValueError("system is not uniquely solvable")
    return sol


def min_norm_pick(particular: Vector, basis: Sequence[Vector]) -> Vector:
    """Least-squares representative of an affine set, exactly over Q.

    Minimizes the Euclidean norm of particular + sum t_j basis_j; the
    normal matrix is invertible because the basis is independent.
    """
    if not basis:
        return list(particular)
    k = len(basis)
    gram = [[sum(bi * bj for bi, bj in zip(basis[i], basis[j]))
             for j in range(k)] for i in range(k)]
    rhs = [-sum(bi * xi for bi, xi in zip(basis[i], particular)) for i in range(k)]
    t = solve_unique(gram, rhs)
    out = list(particular)
    for j in range(k):
        if t[j]:
            out = [o + t[j] * bj for o, bj in zip(out, basis[j])]
    return out


def in_span(vectors: Sequence[Vector], target: Vector) -> Optional[Vector]:
    """Coordinates of target on the given vectors, or None if outside the span."""
    if not vectors:
        return None if any(target) else []
    n = len(target)
    a = [[vectors[j][i] for j in range(len(vectors))] for i in range(n)]
    sol, _basis = solve_affine(a, list(target))
    return sol

