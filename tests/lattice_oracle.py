"""Test oracles for the lattice kernels.

``hull_contains`` decides membership in a convex hull by a phase-1
simplex, with no facet data, so it checks the facet counter of
:mod:`growthlab.ehrhart`.  ``theta_naive`` scans a bounding box and
evaluates the form directly, with its own elimination for the box, so
it checks the Fincke-Pohst descent of :mod:`growthlab.theta`.  Both
work over ``Fraction`` and share no code with the kernels they check.

``machin_pi``, ``quadrant_disc_count`` and ``gauss_slack_bracket``
check the bound check of :mod:`growthlab.gauss`: pi by Machin's formula
instead of the kernel's spigot, R(t) from one quadrant instead of the
kernel's rows and sieve, and the slack bracketed by interval arithmetic
at 100 digits, in plain integers.
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


def machin_pi(digits: int) -> tuple:
    """(lo, hi) with lo < pi * 10^digits < hi and hi - lo <= 2, from
    pi = 16 arctan(1/5) - 4 arctan(1/239) summed in integers with ten
    guard digits."""
    guard = 10 ** 10
    one = 10 ** digits * guard

    def arctan_inv(x):
        # sum_k (-1)^k floor(one / x^(2k+1)) // (2k+1): repeated floor
        # division is exact, so each term is off by less than 1, and the
        # first zero term bounds the alternating tail by 1
        total, power, k = 0, one // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total, k + 1

    a5, n5 = arctan_inv(5)
    a239, n239 = arctan_inv(239)
    approx = 16 * a5 - 4 * a239
    err = 16 * n5 + 4 * n239
    return (approx - err) // guard, -(-(approx + err) // guard)


def quadrant_disc_count(t: int) -> int:
    """R(t) = 1 + 4r + 4 sum_{a=1}^{r} floor(sqrt(t - a^2)), r = floor(sqrt t):
    the origin, the four half-axes and four copies of the open quadrant."""
    r = isqrt(t)
    return 1 + 4 * r + 4 * sum(isqrt(t - a * a) for a in range(1, r + 1))


def gauss_slack_bracket(t: int, R: int, pi: tuple, digits: int) -> tuple:
    """(lo, hi) with lo <= (2 pi (1 + sqrt(2t)) - |R - pi t|) * 10^digits
    <= hi, given pi's bracket from ``machin_pi(digits)``."""
    one = 10 ** digits
    pi_lo, pi_hi = pi
    q = isqrt(2 * t * one * one)          # q <= sqrt(2t) * one < q + 1
    bound_lo = 2 * pi_lo * (one + q) // one
    bound_hi = -(-2 * pi_hi * (one + q + 1) // one)
    # |R one - x t| over x in [pi_lo, pi_hi] is largest at an end and is
    # 0 inside only if it changes sign there
    ends = (R * one - pi_lo * t, R * one - pi_hi * t)
    error_hi = max(abs(e) for e in ends)
    error_lo = 0 if ends[0] * ends[1] <= 0 else min(abs(e) for e in ends)
    return bound_lo - error_hi, bound_hi - error_lo
