"""Lattice-point counts in discs: R(t), r2(k), cumulative R2(k), the
classical error bound |R(t) - pi t| <= 2 pi (1 + sqrt(2t)), and an
empirical fit of the error exponent.

All counts are exact integers computed with integer square roots.  The
bound check is decided in integers too: each t gets an integer lower
bound on its slack, in units of 1/SCALE, and passes only when that
bound exceeds a fixed safety margin (MARGIN), so a pass proves the
margin and no rounding decides it.  Decimals, at 50 significant digits
(DIGITS), are built only for the values that are shown.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import cache
from itertools import accumulate

from .config import DIGITS
from .errors import ArgumentError, CheckFailure, Record

# the slack by which every bound must exceed its error
MARGIN = Decimal("1e-20")

# the fixed point of the bound check: slacks are integers in units of
# 1/SCALE, ten digits finer than the DIGITS shown
SCALE = 10 ** (DIGITS + 10)

_set = object.__setattr__


@cache
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


@cache
def _fixed_pi() -> int:
    """PI with PI <= pi * SCALE <= PI + 2.  Pi to DIGITS + 11 digits is
    within one unit of its last digit, 10^-(DIGITS + 10), of pi, so
    scaled by SCALE it is an integer within 1 of pi * SCALE.  The scaling
    runs at twice the digits of SCALE: scaleb rounds to the context."""
    with localcontext() as ctx:
        ctx.prec = 2 * (DIGITS + 10)
        return int(pi_decimal(DIGITS + 11).scaleb(DIGITS + 10)) - 1


@cache
def _units(value: Decimal) -> int:
    """int(value * SCALE), scaled at twice the digits of SCALE.  For
    0 < value < 10^DIGITS every integer digit is kept, so the result is
    at least floor(value * SCALE), and an integer above it exceeds
    value * SCALE."""
    with localcontext() as ctx:
        ctx.prec = 2 * (DIGITS + 10)
        return int(value.scaleb(DIGITS + 10))


def count_disc(t: int) -> int:
    """R(t): number of integer points (a, b) with a^2 + b^2 <= t."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
    r = math.isqrt(t)
    return sum(2 * math.isqrt(t - a * a) + 1 for a in range(-r, r + 1))


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
    """One bound check: the exact count R(t) and `slack`, an integer with
    slack / SCALE <= 2 pi (1 + sqrt(2t)) - |R - pi t|.  Construction
    fails (CheckFailure) unless slack exceeds MARGIN * SCALE, so a record
    proves that the bound exceeds the error by more than MARGIN.

    `error` and `bound` are |R - pi t| and 2 pi (1 + sqrt(2t)), computed
    at DIGITS + 10 digits and shown at DIGITS; nothing decides on them."""

    __slots__ = ("t", "R", "slack")

    def __init__(self, t: int, R: int, slack: int):
        # one record per t: the fields are set here rather than through
        # Record.__init__, which would double the cost of the batch
        _set(self, "t", t)
        _set(self, "R", R)
        _set(self, "slack", slack)
        if slack <= _units(MARGIN):
            raise CheckFailure(
                f"Gauss bound violated at t={t}: "
                f"error {self.error} vs bound {self.bound}", context=t)

    @property
    def error(self) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            error = abs(self.R - pi_decimal(DIGITS + 10) * self.t)
            ctx.prec = DIGITS
            return +error

    @property
    def bound(self) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            root = Decimal(2 * self.t).sqrt()
            bound = 2 * pi_decimal(DIGITS + 10) * (1 + root)
            ctx.prec = DIGITS
            return +bound


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
    the sieve is counted on its own.  Returns the per-t records, in the
    order given; raises CheckFailure carrying the first offending t if
    any check fails (it never should).
    """
    ts = list(t_values)
    if not ts:
        raise ArgumentError("t_values must be nonempty")
    # the cumulative counts sum_{j<=k} r2(j) are the disc counts R(k)
    table = list(accumulate(r2_table(len(ts))))
    counts = [table[t] if 0 <= t < len(table) else count_disc(t) for t in ts]
    # With p = pi * SCALE and PI <= p <= PI + 2, the slack times SCALE is
    # 2p + sqrt(8t) p - |R SCALE - p t|, and each term is bounded in
    # integers: 2 PI is within 4 below 2p; isqrt(8t PI^2) is within
    # 2 sqrt(8t) + 1 below sqrt(8t) p; |R SCALE - PI t| + 2t is within 4t
    # above |R SCALE - p t|.  So slack <= the true slack times SCALE
    # < slack + 4t + 2 sqrt(8t) + 5, at most 6t + 9.
    PI = _fixed_pi()
    pi2, pi8 = 2 * PI, 8 * PI * PI
    isqrt = math.isqrt
    return [CircleCount(t, R, pi2 + isqrt(pi8 * t)
                        - abs(R * SCALE - PI * t) - 2 * t)
            for t, R in zip(ts, counts)]


def near_least_slack(records: list[CircleCount]) -> list[CircleCount]:
    """The records whose shown slack, bound - error, can be the least.

    In units of 1/SCALE: a shown value is its DIGITS + 10 digit value
    rounded to DIGITS digits, off by half a unit in its last digit, and
    that unit is at most U, the one of the largest shown bound, as
    error < bound.  The DIGITS + 10 digit values are off by at most
    30t + 35 bound + 5, below 251t + 338, so a shown slack is within
    U + 251t + 338 of the true one, and a record's slack is at most
    6t + 9 below the true one.  So only a record whose slack is within
    2U + 508t + 685 of the least, less than 2U + 1000 (tmax + 1), can
    show the least."""
    top = max(records, key=lambda r: r.t)
    unit = 10 ** top.bound.adjusted() * SCALE // 10 ** (DIGITS - 1)
    tolerance = 2 * unit + 1000 * (top.t + 1)
    least = min(r.slack for r in records)
    return [r for r in records if r.slack - least <= tolerance]


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
    from statistics import linear_regression

    ts = sorted(set(int(t) for t in t_grid))
    if len(ts) < 10:
        raise ArgumentError("need at least 10 grid values")
    if ts[0] < 1:
        raise ArgumentError("grid values must be at least 1")
    # |R SCALE - PI t| is within 2t of |R - pi t| SCALE, as in the check
    PI = _fixed_pi()
    window_max: dict[int, int] = {}
    for t in ts:
        err = abs(count_disc(t) * SCALE - PI * t)
        j = t.bit_length() - 1
        if err > window_max.get(j, -1):
            window_max[j] = err
    if len(window_max) < 2:
        raise ArgumentError(
            "degenerate grid: need at least two dyadic windows")
    xs, ys = [], []
    for j in sorted(window_max):
        xs.append((j + 0.5) * math.log(2.0))
        ys.append(math.log(max(window_max[j] / SCALE, 1e-300)))
    slope, intercept = linear_regression(xs, ys)
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    return ExponentFit(float(slope), rms, tuple(zip(xs, ys)))
