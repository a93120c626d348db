"""Exact linear algebra on small integer matrices, given as row sequences.

Everything rests on one fraction-free row reduction, :func:`_echelon`
(Bareiss, *Sylvester's identity and multistep integer-preserving
Gaussian elimination*, Math. Comp. 22, 1968).  By Sylvester's identity
every entry it produces is an integer minor of the input, so its
divisions are exact.  Rank, determinant, an integer null-space basis
and the integer form of LDL^T are read off the reduced matrix, and the
integral inverse off null spaces.
"""

from __future__ import annotations

from math import gcd

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


def mat_inverse_exact(rows) -> tuple:
    """Inverse of an integer matrix, required to be integral.

    Raises StructuralError when the matrix is singular or the inverse has
    a non-integer entry (i.e. the matrix is not invertible over Z).
    """
    n = len(rows)
    if rank(rows) < n:
        raise StructuralError("matrix is singular, no inverse exists")
    # column j of the inverse solves A c = e_j: the null space of
    # [A | -e_j] is spanned by one primitive (c, t) with t > 0, and
    # t = 1 exactly when c is integral
    cols = []
    for j in range(n):
        [[*col, t]] = nullspace([[*row, -int(i == j)]
                                 for i, row in enumerate(rows)], n + 1)
        if t != 1:
            raise StructuralError(
                "matrix inverse is not integral; the matrix is not "
                "invertible over the integers")
        cols.append(col)
    return tuple(zip(*cols))


def nullspace(rows, n: int) -> list:
    """Basis of {x : A x = 0} for an integer matrix A with n columns.

    One primitive integer vector per non-pivot column of the echelon
    form, so the basis has n - rank(A) vectors; it is empty when A has
    full column rank and the unit vectors when A has no rows.  Back
    substitution stays in integers: before a pivot variable is solved
    for, the whole vector is scaled just enough for the division to be
    exact.  That scale k = |p| / gcd(s, p) is coprime to the solved
    entry -s k / p, so a vector with coprime entries keeps them, and
    each basis vector is primitive from its start, the unit vector.
    """
    m, pivots, _ = _echelon(rows)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        x = [0] * n
        x[free] = 1
        for r in reversed(range(len(pivots))):
            row, c = m[r], pivots[r]
            s = sum(row[j] * x[j] for j in range(c + 1, n))
            scale = abs(row[c]) // gcd(s, row[c])
            if scale != 1:
                x = [scale * v for v in x]
                s *= scale
            x[c] = -s // row[c]
        basis.append(x)
    return basis


def ldl(gram) -> list:
    """Exact G = L D L^T in integer form: the fraction-free reduced rows
    ``m`` of G, upper triangular.  With p_i = m[i][i] (the leading
    principal minors, p_{-1} = 1), D_i = p_i / p_{i-1} and
    L_ji = m[i][j] / p_i, so that

        x^T G x = sum_i u_i^2 / (p_i p_{i-1}),  u_i = sum_{j>=i} m[i][j] x_j,

    with every u_i an integer for integer x.  Raises StructuralError
    unless every p_i is positive, which is equivalent to positive
    definiteness (Sylvester's criterion).
    """
    n = len(gram)
    m, pivots, swaps = _echelon(gram)
    if swaps or pivots != list(range(n)) or any(m[i][i] <= 0 for i in range(n)):
        raise StructuralError("gram matrix is not positive definite")
    return m
