import math
import random
from decimal import Decimal, localcontext
from itertools import accumulate

import pytest

from growthlab import gauss
from growthlab.errors import ArgumentError, CheckFailure
from growthlab.gauss import (SCALE, CircleCount, count_disc,
                             dyadic_extension, error_exponent_fit,
                             gauss_bound_check, near_least_slack, pi_decimal,
                             r2_table)
from lattice_oracle import gauss_slack_bracket, machin_pi, quadrant_disc_count

PI_50 = "3.1415926535897932384626433832795028841971693993751"

# pi to 100 digits, bracketed: lo < pi * 10^100 < hi
PI_100 = machin_pi(100)


def brute_disc(t):
    r = math.isqrt(t)
    return sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1)
               if a * a + b * b <= t)


def r2(k):
    """Number of representations k = a^2 + b^2 counting signs and order."""
    total = 0
    for a in range(-math.isqrt(k), math.isqrt(k) + 1):
        rem = k - a * a
        s = math.isqrt(rem)
        if s * s == rem:
            total += 2 if s > 0 else 1
    return total


def shown_least(records, prec):
    """The least bound - error over every record, at prec digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        return min(r.bound - r.error for r in records)


def test_pi_decimal_digits():
    assert str(pi_decimal(50)) == PI_50
    assert str(pi_decimal(10)) == "3.141592654"
    with pytest.raises(ArgumentError):
        pi_decimal(0)


def test_pi_decimal_within_a_unit_of_its_last_digit():
    # the fixed-point check scales pi to DIGITS + 11 digits and needs it
    # within 10^-(DIGITS + 10) of pi; the shown values use DIGITS + 10
    lo, hi = PI_100
    for digits in (10, 50, 60, 61, 62, 90):
        _, coefficient, exponent = pi_decimal(digits).as_tuple()
        assert len(coefficient) == digits and exponent == 1 - digits
        scaled = int("".join(map(str, coefficient))) * 10 ** (101 - digits)
        unit = 10 ** (101 - digits)
        assert lo - unit < scaled < hi + unit, digits


def test_count_disc_small_values():
    assert count_disc(0) == 1
    assert count_disc(1) == 5
    assert count_disc(2) == 9
    assert count_disc(4) == 13


def test_count_disc_against_brute_force():
    for t in range(0, 201, 7):
        assert count_disc(t) == brute_disc(t)


def test_count_disc_rejects_negative():
    with pytest.raises(ArgumentError):
        count_disc(-1)


def test_r2_known_values():
    assert [r2(k) for k in range(9)] == [1, 4, 4, 0, 4, 8, 0, 0, 4]
    assert r2(25) == 12  # 0+25 gives 4, 9+16 gives 8


def test_r2_sieve_matches_direct():
    table = r2_table(300)
    assert table == [r2(k) for k in range(301)]
    with pytest.raises(ArgumentError):
        r2_table(-1)


def test_r2_sieve_matches_divisor_formula():
    # Jacobi: r2(n) = 4 (d_{1,4}(n) - d_{3,4}(n)), counting the divisors
    # of n that are 1 and 3 mod 4
    table = r2_table(2000)
    assert table[0] == 1
    for n in range(1, 2001):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d1 = sum(1 for d in divisors if d % 4 == 1)
        d3 = sum(1 for d in divisors if d % 4 == 3)
        assert table[n] == 4 * (d1 - d3)


def test_cumulative_matches_disc_count():
    table = list(accumulate(r2_table(500)))
    for k in range(0, 501, 13):
        assert table[k] == count_disc(k)
    assert count_disc(37) == table[37]


def test_pinned_large_count():
    assert count_disc(100000) == 314197


def test_circle_count_record():
    [rec] = gauss_bound_check([100])
    assert rec.t == 100
    assert rec.R == count_disc(100)
    assert rec.slack > 0
    assert rec.bound - rec.error > 0
    assert rec == CircleCount(100, rec.R, rec.slack)


def test_circle_count_margin_can_force_failure(monkeypatch):
    # at t=0 the slack is exactly 2 pi - 1, about 5.28, so a margin of
    # 10 must trip the check even though the bound itself holds, and
    # the batch check carries the first offending t in input order
    monkeypatch.setattr(gauss, "MARGIN", Decimal(10))
    with pytest.raises(CheckFailure) as err:
        gauss_bound_check([3, 0, 1, 0])
    assert err.value.context == 0


def test_circle_count_validates_on_construction():
    # the record proves slack > MARGIN * SCALE: 10^40 itself fails, one
    # more passes, whatever R claims
    floor = SCALE // 10 ** 20
    with pytest.raises(CheckFailure) as err:
        CircleCount(t=1, R=100, slack=floor)
    assert err.value.context == 1
    assert "t=1" in str(err.value)
    assert CircleCount(t=1, R=100, slack=floor + 1).slack == floor + 1


def test_slack_against_interval_oracle():
    # shares no code with gauss: pi by Machin's formula, R(t) from one
    # quadrant (and the sieve below 3001 from the scalar r2), and the
    # true slack bracketed at 100 digits.  The record's slack must be a
    # lower bound that is short by less than 1e-45.
    rng = random.Random(2021)
    ts = (list(range(3001)) + [rng.randrange(1, 10 ** 7) for _ in range(200)]
          + [2 ** j for j in range(1, 24)])
    dense = list(accumulate(r2(k) for k in range(3001)))
    recs = gauss_bound_check(ts)
    assert [r.t for r in recs] == ts
    shift = 10 ** (100 - 60)      # SCALE = 10^60 into units of 10^-100
    for rec in recs:
        t = rec.t
        R = dense[t] if t <= 3000 else quadrant_disc_count(t)
        assert rec.R == R, t
        lo, hi = gauss_slack_bracket(t, R, PI_100, 100)
        assert rec.slack * shift <= lo, t
        assert hi < rec.slack * shift + 10 ** (100 - 45), t


def test_worst_slack_is_read_from_near_least_records():
    # the records near_least_slack keeps hold the least shown slack of
    # all records, at either precision a caller reads it at
    rng = random.Random(7)
    sets = [range(1, 500), range(0, 40), [5, 5, 9, 2 ** 20, 5],
            [rng.randrange(0, 10 ** 6) for _ in range(60)]]
    for ts in sets:
        recs = gauss_bound_check(ts)
        near = near_least_slack(recs)
        assert 1 <= len(near) < len(recs)
        for prec in (50, 60):
            assert shown_least(near, prec) == shown_least(recs, prec)
    # above t = 0 the least shown slack, about 13.3, is at t = 1
    near = near_least_slack(gauss_bound_check(range(1, 500)))
    assert [r.t for r in near] == [1]
    assert f"{shown_least(near, 50):E}" == \
        "1.3310543837086112209419692129959896049820751576877E+1"
    assert f"{shown_least(near, 60):.3E}" == "1.331E+1"


def test_near_least_tolerance():
    # a record can show the least slack only if its integer slack is
    # within 2U + 1000 (tmax + 1) of the least, U being one unit in the
    # 50th digit of the largest bound (here 2 pi (1 + sqrt 14) = 29.8...,
    # so U = 10^-48, 10^12 in units of 1/SCALE); the tolerance keeps
    # every such record and nothing beyond it
    least = SCALE
    tolerance = 2 * 10 ** 12 + 1000 * (7 + 1)
    recs = [CircleCount(0, 1, least), CircleCount(7, 21, least + tolerance),
            CircleCount(3, 9, least + tolerance + 1)]
    assert recs[1].bound.adjusted() == 1
    assert near_least_slack(recs) == recs[:2]


def test_shown_values_are_rounded_to_digits():
    # error and bound are shown at DIGITS digits, within 0.6 of a unit
    # in their last digit of the values at 100 digits
    lo, _ = PI_100
    for rec in gauss_bound_check([0, 7, 2 ** 23]):
        with localcontext() as ctx:
            ctx.prec = 110
            pi = Decimal(lo).scaleb(-100)
            error = abs(rec.R - pi * rec.t)
            bound = 2 * pi * (1 + Decimal(2 * rec.t).sqrt())
            for shown, exact in ((rec.error, error), (rec.bound, bound)):
                assert len(shown.as_tuple().digits) <= 50
                assert abs(shown - exact) <= \
                    Decimal(6).scaleb(shown.adjusted() - 50), rec.t


def test_gauss_bound_check_batch():
    recs = gauss_bound_check(range(0, 50))
    assert len(recs) == 50
    # the dense path reads counts from the sieve; cross-check a few
    recs_dense = gauss_bound_check(range(0, 100))
    for rec in recs_dense[::17]:
        assert rec.R == count_disc(rec.t)
    # values beyond the sieve are counted one by one, in the given order
    ts = [3, 10 ** 6, 2, 4]
    assert [r.R for r in gauss_bound_check(ts)] == [count_disc(t) for t in ts]
    with pytest.raises(ArgumentError):
        gauss_bound_check([])
    with pytest.raises(ArgumentError):
        gauss_bound_check([5, -1, 7])


def test_bound_holds_at_random_points():
    rng = random.Random(411)
    ts = [rng.randrange(0, 1_000_000) for _ in range(25)]
    recs = gauss_bound_check(ts)  # raises CheckFailure on any violation
    for rec in recs:
        assert rec.error < rec.bound
    # the dense range and the dyadics of the stock check, in order
    ts = list(range(10001)) + dyadic_extension(10000, 10 ** 7)
    assert [r.t for r in gauss_bound_check(ts)] == ts


def test_error_exponent_fit():
    grid = sorted(set(round(2 ** (j / 4)) for j in range(16, 49)))
    fit = error_exponent_fit(grid)
    # windowed-max errors grow slowly; the fitted slope on this grid is
    # about 0.20, far below the trivial 0.5 envelope
    assert 0.10 < fit.alpha < 0.35
    assert len(fit.windows) == 9
    assert fit.residual >= 0.0
    xs = [x for x, _ in fit.windows]
    assert xs == sorted(xs)


def test_error_exponent_fit_preconditions():
    with pytest.raises(ArgumentError):
        error_exponent_fit(range(1, 8))  # fewer than 10 values
    with pytest.raises(ArgumentError):
        error_exponent_fit(range(0, 20))  # contains t = 0
    with pytest.raises(ArgumentError):
        error_exponent_fit(range(16, 28))  # single dyadic window
