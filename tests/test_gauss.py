import math
import random
import re
from decimal import Decimal
from itertools import accumulate

import pytest

from growthlab import gauss
from growthlab.errors import ArgumentError, CheckFailure
from growthlab.gauss import (SCALE, CircleCount, count_disc,
                             dyadic_extension, error_exponent_fit,
                             gauss_bound_check, pi_decimal, r2_table,
                             worst_slack)
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


def test_pi_decimal_digits():
    assert str(pi_decimal(50)) == PI_50
    assert str(pi_decimal(10)) == "3.141592654"
    with pytest.raises(ArgumentError):
        pi_decimal(0)


def test_pi_decimal_within_a_unit_of_its_last_digit():
    # the fixed-point check scales pi to DIGITS + 11 digits and needs it
    # within 10^-(DIGITS + 10) of pi
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
    assert str(err.value) == (
        "Gauss bound violated at t=1: slack 1." + "0" * 40 + "E-20"
        " does not exceed the margin 1E-20")
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


def test_worst_slack_against_interval_oracle():
    # the shown worst slack is the least integer slack rounded down to 50
    # digits: at most the least true slack, bracketed at 100 digits, and
    # less than one unit in its 50th digit below it, on sets with and
    # without t = 0
    rng = random.Random(7)
    sets = [range(1, 500), range(0, 40), [5, 5, 9, 2 ** 20, 5],
            [rng.randrange(0, 10 ** 6) for _ in range(60)],
            [rng.randrange(1, 10 ** 7) for _ in range(60)] + [0]]
    for ts in sets:
        recs = gauss_bound_check(ts)
        brackets = [gauss_slack_bracket(r.t, r.R, PI_100, 100) for r in recs]
        least_lo = min(lo for lo, _ in brackets)
        least_hi = min(hi for _, hi in brackets)
        worst = worst_slack(recs)
        _, digits, exponent = worst.as_tuple()
        assert len(digits) <= 50
        # worst and one unit in its 50th digit, in units of 10^-100
        shown = int("".join(map(str, digits))) * 10 ** (exponent + 100)
        unit = 10 ** (worst.adjusted() - 49 + 100)
        assert shown <= least_lo and least_hi < shown + unit, ts
    # above t = 0 the least slack, about 13.3, is at t = 1, and its 51st
    # digit is 6, so rounding to nearest would show a value above it
    recs = gauss_bound_check(range(1, 500))
    assert f"{worst_slack(recs):E}" == \
        "1.3310543837086112209419692129959896049820751576876E+1"
    assert f"{worst_slack(recs):.3E}" == "1.331E+1"


def test_count_disc_walks_the_rows_the_budget_counts(monkeypatch, capsys):
    # --dyadic-to 64 past --tmax 10 adds t = 16, 32, 64; the refusal
    # counts the rows that count_disc then walks, one per a^2 <= t
    from growthlab.cli import main
    assert main(["gauss", "--check-bound", "--tmax", "10", "--dyadic-to",
                 "64", "--budget", "36"]) == 2
    counted = int(re.search(r"the (\d+) disc rows",
                            capsys.readouterr().err)[1])
    real, walked = gauss.disc_rows, []

    def walk(t):
        walked.append(0)
        for a in real(t):
            walked[-1] += 1
            yield a
    monkeypatch.setattr(gauss, "disc_rows", walk)
    assert [count_disc(t) for t in (16, 32, 64)] == [49, 101, 197]
    assert walked == [9, 11, 17]
    assert sum(walked) == counted == 37
    for t in range(200):
        assert count_disc(t) == brute_disc(t)
        assert walked[-1] == len(real(t)) == 2 * math.isqrt(t) + 1


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
        assert rec.slack > 0
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
