"""Lattice-point counts in discs: R(t), r2(k), cumulative R2(k), the
classical error bound |R(t) - pi t| <= 2 pi (1 + sqrt(2t)), and an
empirical fit of the error exponent.

All counts are exact integers computed with integer square roots; the
bound check runs in fixed 60-digit decimal arithmetic, shows its values
at 50 significant digits (DIGITS) and demands a fixed safety margin
(MARGIN), so a pass can never be a rounding artifact.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from itertools import accumulate
from statistics import linear_regression

from .config import DIGITS
from .errors import ArgumentError, CheckFailure, Record

# the slack by which every bound must exceed its error
MARGIN = Decimal("1e-20")


def pi_decimal(digits: int = DIGITS) -> Decimal:
    """Pi to `digits` significant digits (arctan-free spigot iteration,
    the classic Decimal recipe)."""
    if digits < 1:
        raise ArgumentError("digits must be positive")
    with localcontext() as ctx:
        ctx.prec = digits + 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def count_disc(t: int) -> int:
    """R(t): number of integer points (a, b) with a^2 + b^2 <= t."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
    r = math.isqrt(t)
    return sum(2 * math.isqrt(t - a * a) + 1 for a in range(-r, r + 1))


def r2(k: int) -> int:
    """Number of representations k = a^2 + b^2 counting signs and order."""
    if k < 0:
        raise ArgumentError("k must be nonnegative")
    total = 0
    for a in range(-math.isqrt(k), math.isqrt(k) + 1):
        rem = k - a * a
        s = math.isqrt(rem)
        if s * s == rem:
            total += 2 if s > 0 else 1
    return total


def r2_table(kmax: int) -> list[int]:
    """r2(0..kmax) in one sieve pass over the eighth of the plane
    0 <= a <= b, expanding each pair by its symmetry orbit."""
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    counts = [0] * (kmax + 1)
    for a in range(math.isqrt(kmax) + 1):
        a2 = a * a
        for b in range(a, math.isqrt(kmax - a2) + 1):
            s = a2 + b * b
            if a == 0 and b == 0:
                w = 1
            elif a == 0 or a == b:
                w = 4
            else:
                w = 8
            counts[s] += w
    return counts


class CircleCount(Record):
    """One bound check: exact count R(t), |R - pi t| and the classical
    bound, both to DIGITS significant digits.  Construction fails
    (CheckFailure) unless the bound exceeds the error by MARGIN."""

    __slots__ = ("t", "R", "error", "bound")

    def __init__(self, t: int, R: int, error: Decimal, bound: Decimal):
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            if bound - error <= MARGIN:
                raise CheckFailure(
                    f"Gauss bound violated at t={t}: "
                    f"error {error} vs bound {bound}", context=t)
        super().__init__(t, R, error, bound)


def dyadic_extension(tmax: int, upto: int) -> list[int]:
    """The powers of two 2^j, j >= 1, above tmax and at most upto: the
    values that extend a bound check past a dense range 0..tmax."""
    ts = []
    j = 1
    while 2 ** j <= upto:
        if 2 ** j > tmax:
            ts.append(2 ** j)
        j += 1
    return ts


def gauss_bound_check(t_values) -> list[CircleCount]:
    """Check |R(t) - pi t| <= 2 pi (1 + sqrt(2t)) for every t given.

    One sieve of as many entries as there are values counts every t up
    to that size, so a dense range costs one linear pass; a t beyond
    the sieve is counted on its own.  Returns the per-t records on
    success; raises CheckFailure carrying the offending t if any check
    fails (it never should).
    """
    ts = list(t_values)
    if not ts:
        raise ArgumentError("t_values must be nonempty")
    # the cumulative counts sum_{j<=k} r2(j) are the disc counts R(k)
    table = list(accumulate(r2_table(len(ts))))
    pi = pi_decimal(DIGITS + 10)
    out = []
    for t in ts:
        R = table[t] if 0 <= t < len(table) else count_disc(t)
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            error = abs(Decimal(R) - pi * t)
            bound = 2 * pi * (1 + Decimal(2 * t).sqrt())
            ctx.prec = DIGITS
            out.append(CircleCount(t, R, +error, +bound))
    return out


class ExponentFit(Record):
    """Least-squares slope of log windowed-max error against log t; the
    windows are (log t at window center, log max error) pairs."""

    __slots__ = ("alpha", "residual", "windows")


def error_exponent_fit(t_grid) -> ExponentFit:
    """Fit |R(t) - pi t| ~ t^alpha on dyadic windows of the grid.

    Within each window [2^j, 2^{j+1}) the maximum error is taken, which
    smooths the heavy oscillation of the raw error term.  Diagnostic
    only: no pass/fail is attached to the fitted exponent.
    """
    ts = sorted(set(int(t) for t in t_grid))
    if len(ts) < 10:
        raise ArgumentError("need at least 10 grid values")
    if ts[0] < 1:
        raise ArgumentError("grid values must be at least 1")
    pi = pi_decimal(DIGITS + 10)
    window_max: dict[int, Decimal] = {}
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        for t in ts:
            err = abs(Decimal(count_disc(t)) - pi * t)
            j = t.bit_length() - 1
            if j not in window_max or err > window_max[j]:
                window_max[j] = err
    if len(window_max) < 2:
        raise ArgumentError(
            "degenerate grid: need at least two dyadic windows")
    xs, ys = [], []
    for j in sorted(window_max):
        xs.append((j + 0.5) * math.log(2.0))
        ys.append(math.log(max(float(window_max[j]), 1e-300)))
    slope, intercept = linear_regression(xs, ys)
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    return ExponentFit(float(slope), rms, tuple(zip(xs, ys)))
