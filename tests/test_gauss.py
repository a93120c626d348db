import math
import random
from decimal import Decimal
from itertools import accumulate

import pytest

from growthlab import gauss
from growthlab.errors import ArgumentError, CheckFailure
from growthlab.gauss import (CircleCount, count_disc, error_exponent_fit,
                             gauss_bound_check, pi_decimal, r2, r2_table)

PI_50 = "3.1415926535897932384626433832795028841971693993751"


def brute_disc(t):
    r = math.isqrt(t)
    return sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1)
               if a * a + b * b <= t)


def test_pi_decimal_digits():
    assert str(pi_decimal(50)) == PI_50
    assert str(pi_decimal(10)) == "3.141592654"
    with pytest.raises(ArgumentError):
        pi_decimal(0)


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
    with pytest.raises(ArgumentError):
        r2(-3)


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
    assert rec.bound - rec.error > 0


def test_circle_count_margin_can_force_failure(monkeypatch):
    # at t=0 the slack is exactly 2 pi - 1, about 5.28, so a margin of
    # 10 must trip the check even though the bound itself holds, and
    # the batch check carries the offending t
    monkeypatch.setattr(gauss, "MARGIN", Decimal(10))
    with pytest.raises(CheckFailure) as err:
        gauss_bound_check([3, 0, 1])
    assert err.value.context == 0


def test_circle_count_validates_on_construction():
    with pytest.raises(CheckFailure):
        CircleCount(t=1, R=100, error=Decimal(90), bound=Decimal(9))


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
