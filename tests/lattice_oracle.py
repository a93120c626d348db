"""Test oracles for the lattice kernels.

``hull_contains`` decides membership in a convex hull by a phase-1
simplex, with no facet data, so it checks the facet counter of
:mod:`growthlab.ehrhart`.  ``theta_naive`` scans a bounding box and
evaluates the form directly, with its own elimination for the box, so
it checks the Fincke-Pohst descent of :mod:`growthlab.theta`.  Both
work over ``Fraction`` and share no code with the kernels they check.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from growthlab.errors import ArgumentError
from growthlab.theta import IntegralLattice, ThetaPrefix


def hull_contains(columns, rhs) -> bool:
    """Is rhs a convex combination of the given columns?

    Solves feasibility of {lam >= 0, sum lam = 1, sum lam_i col_i = rhs}
    by minimizing the sum of artificial variables with exact fractions;
    Bland's rule guarantees termination.
    """
    m = len(rhs) + 1
    n = len(columns)
    # tableau rows: [lambda columns | artificial columns | rhs]
    rows = []
    for i in range(m):
        if i == 0:
            coeffs = [Fraction(1)] * n
            b = Fraction(1)
        else:
            coeffs = [Fraction(c[i - 1]) for c in columns]
            b = Fraction(rhs[i - 1])
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        rows.append(coeffs + [Fraction(int(j == i)) for j in range(m)] + [b])
    basis = [n + i for i in range(m)]

    while True:
        # phase-1 reduced costs over the real columns only; artificial
        # variables are never allowed back into the basis
        z = [Fraction(0)] * n
        for i in range(m):
            if basis[i] >= n:
                row = rows[i]
                for j in range(n):
                    if row[j]:
                        z[j] += row[j]
        entering = next(
            (j for j in range(n) if j not in basis and z[j] > 0), None)
        if entering is None:
            w = sum(rows[i][-1] for i in range(m) if basis[i] >= n)
            return w == 0
        # ratio test, Bland tie-break on the leaving basic variable
        leave = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            # unbounded phase-1 objective cannot happen (w >= 0), but a
            # missing leave row means the entering column is nonpositive
            return False
        piv = rows[leave][entering]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][entering]:
                f = rows[i][entering]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
        basis[leave] = entering


def _inverse_diagonal(gram) -> list:
    """Diagonal entries of G^{-1}, exact, by Gauss-Jordan elimination."""
    n = len(gram)
    aug = [[Fraction(gram[i][j]) for j in range(n)]
           + [Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[col])]
    return [aug[i][n + i] for i in range(n)]


def theta_naive(L: IntegralLattice, rmax: int) -> ThetaPrefix:
    """Theta coefficients r(0..rmax) from a scan of the exact bounding
    box |x_i| <= sqrt(rmax * (G^{-1})_ii), evaluating the form directly.
    Meant for small ranks and bounds only."""
    if rmax < 0:
        raise ArgumentError("rmax must be nonnegative")
    n = L.rank
    g = L.gram
    bounds = [isqrt(int(rmax * q)) for q in _inverse_diagonal(g)]
    counts = [0] * (rmax + 1)
    for x in product(*(range(-b, b + 1) for b in bounds)):
        norm = 0
        for i in range(n):
            xi = x[i]
            if xi:
                norm += g[i][i] * xi * xi
                for j in range(i):
                    norm += 2 * g[i][j] * xi * x[j]
        if 0 <= norm <= rmax:
            counts[norm] += 1
    return ThetaPrefix(rmax, tuple(counts))
