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


def rank(rows: Matrix) -> int:
    return len(_rref(rows)[1])


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


class Echelon:
    """A maximal linearly independent subset of vectors, scanned in order,
    kept in echelon form.

    ``chosen`` holds the indices of the kept vectors.  Each kept vector is
    reduced against the earlier ones and scaled to 1 at its pivot, so it
    vanishes at every earlier pivot.  A candidate reduced against them all
    in order vanishes at every pivot, and is therefore zero exactly when it
    is dependent.  The factors of each reduction are kept too: kept vector
    k is ``sum(mix[k][i] * row_i for i <= k)``, a triangular system that
    turns the factors of any reduction back into coordinates on the kept
    vectors.  Nothing changes after construction.
    """

    __slots__ = ("chosen", "_rows", "_mix")

    def __init__(self, vectors: Sequence[Vector]):
        chosen: List[int] = []
        self._rows: List[Tuple[int, Vector]] = []
        self._mix: List[Vector] = []
        for idx, vec in enumerate(vectors):
            factors, v = self._reduce(vec)
            pivot = next((c for c, a in enumerate(v) if a), None)
            if pivot is None:
                continue
            inv = Fraction(1) / v[pivot]
            self._rows.append((pivot, [a * inv for a in v]))
            self._mix.append(factors + [v[pivot]])
            chosen.append(idx)
        self.chosen = tuple(chosen)

    def _reduce(self, vec: Sequence[Fraction]) -> Tuple[Vector, Vector]:
        """(factor of each row, remainder) of vec reduced against the rows."""
        v = list(vec)
        factors: Vector = []
        for c, row in self._rows:
            f = v[c]
            factors.append(f)
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return factors, v

    def coordinates(self, vec: Sequence[Fraction]) -> Optional[Vector]:
        """Coordinates of vec on the kept vectors, in order, or None when a
        remainder is left (vec is outside their span).  They are unique,
        because the kept vectors are independent."""
        factors, rest = self._reduce(vec)
        if any(rest):
            return None
        mix = self._mix
        coords: Vector = [Fraction(0)] * len(factors)
        for i in reversed(range(len(factors))):
            s = factors[i] - sum(coords[k] * mix[k][i]
                                 for k in range(i + 1, len(factors)) if coords[k])
            coords[i] = s / mix[i][i]
        return coords
