"""Exact linear algebra on small integer matrices, given as row sequences.

Everything rests on one fraction-free row reduction, :func:`_echelon`
(Bareiss, *Sylvester's identity and multistep integer-preserving
Gaussian elimination*, Math. Comp. 22, 1968).  By Sylvester's identity
every entry it produces is an integer minor of the input, so its
divisions are exact.  Rank, determinant, exact solve, integral inverse
and LDL^T are read off the reduced matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError


def _echelon(rows) -> tuple:
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(m, pivots, swaps)``: the reduced rows, the column of the
    leading entry of each nonzero row, and the number of row exchanges.
    Row ``r`` of ``m`` is final once it has been the pivot row; its
    entry ``m[r][r]`` is then the r+1-th leading principal minor of the
    row-permuted input when the first r+1 columns all hold pivots.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            swaps += 1
        top = m[r]
        piv = top[c]
        for i in range(r + 1, len(m)):
            lead = m[i][c]
            m[i] = [(piv * x - lead * y) // prev for x, y in zip(m[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
    return m, pivots, swaps


def rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows)[1])


def det_exact(rows) -> int:
    """Determinant of a square integer matrix, exact, via fraction-free
    (Bareiss) elimination."""
    n = len(rows)
    m, pivots, swaps = _echelon(rows)
    if len(pivots) < n:
        return 0
    det = m[n - 1][n - 1] if n else 1
    return -det if swaps % 2 else det


def solve(a_rows, b) -> list | None:
    """Solve A c = b exactly; returns the solution as a list of
    Fractions, or None when the system is inconsistent or A does not
    have full column rank.  A may be rectangular."""
    n = len(a_rows[0]) if a_rows else 0
    m, pivots, _ = _echelon([list(row) + [v] for row, v in zip(a_rows, b)])
    if pivots != list(range(n)):
        return None
    sol = [Fraction(0)] * n
    for r in reversed(range(n)):
        row = m[r]
        acc = row[n] - sum(row[j] * sol[j] for j in range(r + 1, n))
        sol[r] = Fraction(acc, row[r])
    return sol


def mat_inverse_exact(rows) -> tuple:
    """Inverse of an integer matrix, required to be integral.

    Raises StructuralError when the matrix is singular or the inverse has
    a non-integer entry (i.e. the matrix is not invertible over Z).
    """
    n = len(rows)
    cols = [solve(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    if None in cols:
        raise StructuralError("matrix is singular, no inverse exists")
    if any(v.denominator != 1 for col in cols for v in col):
        raise StructuralError(
            "matrix inverse is not integral; the matrix is not "
            "invertible over the integers")
    return tuple(tuple(int(col[i]) for col in cols) for i in range(n))


def ldl(gram) -> tuple:
    """Exact G = L D L^T with unit lower-triangular L, returned as
    ``(L, D)`` lists of Fractions.  Raises StructuralError unless every
    leading principal minor of G is positive, which is equivalent to
    positive definiteness (Sylvester's criterion).

    Without row exchanges, reduced row i holds the minors that give
    D_i = m[i][i] / m[i-1][i-1] and, by the symmetry of G,
    L_ji = m[i][j] / m[i][i].
    """
    n = len(gram)
    m, pivots, swaps = _echelon(gram)
    if swaps or pivots != list(range(n)) or any(m[i][i] <= 0 for i in range(n)):
        raise StructuralError("gram matrix is not positive definite")
    low = [[Fraction(0)] * n for _ in range(n)]
    d = []
    prev = 1
    for i in range(n):
        d.append(Fraction(m[i][i], prev))
        prev = m[i][i]
        for j in range(i, n):
            low[j][i] = Fraction(m[i][j], m[i][i])
    return low, d
