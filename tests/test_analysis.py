import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from growthlab.analysis import (DYE_AS_GIVEN_CONVENTION,
                                DYE_IDENTITY_CONVENTION, classify,
                                dye_quantity, dye_quantity_strict,
                                exponential_rate, krause_degree,
                                log_ratio_within)
from growthlab.cayley import BallTable, enumerate_balls
from growthlab.errors import ArgumentError, BudgetExceededError
from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              free_abelian_standard, free_group_standard,
                              heisenberg_group, symmetric_group_adjacent)
from group_oracle import (exact_products, random_f2_set, random_matrix_set,
                          random_z2_set, stock_markings)


def test_exponential_rate_free_group():
    table = enumerate_balls(free_group_standard(2), 12)
    rate = exponential_rate(table)
    # beta(12) = 2*3^12 - 1, so the k=12 estimate is its twelfth root
    est = rate.estimate(12)
    assert Decimal("3.17") < est < Decimal("3.19")
    assert rate.minimum == min(rate.estimates)
    assert rate.estimate(rate.argmin) == rate.minimum
    # the twelfth root is the smallest of the first twelve here
    assert rate.argmin == 12


def test_exponential_rate_matches_float_oracle():
    table = enumerate_balls(free_abelian_standard(2), 10)
    rate = exponential_rate(table)
    for k in range(1, 11):
        expected = table.ball_sizes[k] ** (1.0 / k)
        assert abs(float(rate.estimate(k)) - expected) < 1e-12


def test_exponential_rate_needs_radius():
    with pytest.raises(ArgumentError):
        exponential_rate(ball_table([1, 1]))


def test_krause_degree_abelian():
    for n in (1, 2, 3):
        table = enumerate_balls(free_abelian_standard(n), 25)
        track = krause_degree(table)
        expected = math.log(table.ball_sizes[25]) / math.log(25)
        assert abs(float(track.terminal) - expected) < 1e-12
        assert abs(float(track.terminal) - n) <= 0.3


def test_krause_degree_heisenberg():
    table = enumerate_balls(heisenberg_group(), 20)
    track = krause_degree(table)
    assert Decimal("3.4") < track.terminal < Decimal("4.4")


def test_krause_needs_radius():
    with pytest.raises(ArgumentError):
        krause_degree(enumerate_balls(free_abelian_standard(1), 3))


def test_dye_quantity_z():
    table = enumerate_balls(free_abelian_standard(1), 10)
    res = dye_quantity(table, 5)
    assert res.value == Fraction(2, 11)
    assert res.argmin == 5
    assert res.K == 5
    assert res.convention == DYE_IDENTITY_CONVENTION


def test_dye_quantity_z2_minima():
    table = enumerate_balls(free_abelian_standard(2), 12)
    values = [dye_quantity(table, K).value for K in range(1, 7)]
    assert values == [Fraction(8, 5), Fraction(16, 13), Fraction(24, 25),
                      Fraction(32, 41), Fraction(40, 61), Fraction(48, 85)]


def test_dye_quantity_z3_first_two_tie():
    # sigma(2)/beta(1) = 18/7 and sigma(4)/beta(2) = 66/25 > 18/7, so the
    # running minimum stays flat from K=1 to K=2; pinned as a regression
    # value because it is easy to get wrong by assuming strict decrease
    table = enumerate_balls(free_abelian_standard(3), 12)
    assert dye_quantity(table, 1).value == Fraction(18, 7)
    assert dye_quantity(table, 2).value == Fraction(18, 7)
    assert Fraction(table.sphere_sizes[4], table.ball_sizes[2]) == Fraction(66, 25)


def test_dye_quantity_nonincreasing():
    for n in (1, 2, 3):
        table = enumerate_balls(free_abelian_standard(n), 12)
        values = [dye_quantity(table, K).value for K in range(1, 7)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_dye_quantity_free_group():
    table = enumerate_balls(free_group_standard(2), 8)
    res = dye_quantity(table, 4)
    assert res.value == Fraction(12, 5)
    assert res.argmin == 1


def test_dye_quantity_preconditions():
    table = enumerate_balls(free_abelian_standard(1), 6)
    with pytest.raises(ArgumentError):
        dye_quantity(table, 0)
    with pytest.raises(ArgumentError):
        dye_quantity(table, 4)  # needs radius 8


def test_dye_strict_z():
    # F = {+1, -1}: the exact k-fold sums are {-k, -k+2, ..., k}, so
    # h_1 = 2 and h_k = k + 1 for k >= 2 (parity keeps shells disjoint)
    m = free_abelian_standard(1)
    res = dye_quantity_strict(m, 2)
    assert res.value == Fraction(5, 5) == 1
    assert res.argmin == 2
    assert res.convention == DYE_AS_GIVEN_CONVENTION


def test_dye_strict_z2():
    # worked by hand: h = [4, 9, 16, 25] and the K=2 minimum is 25/13
    m = free_abelian_standard(2)
    res = dye_quantity_strict(m, 2)
    assert res.value == Fraction(25, 13)
    assert res.argmin == 2


def test_dye_strict_budget(monkeypatch):
    with pytest.raises(BudgetExceededError) as err:
        dye_quantity_strict(free_group_standard(2), 3, element_budget=50)
    assert err.value.last_radius == 2

    # F^1 and F^2 of F_2 hold 4 + 13 = 17 elements, so a budget of 18
    # must stop at the second new element of F^3: 16 products for F^2
    # and 2 more, not all 52 products of F^3.  Each act maps a whole
    # set, so the products are counted as they are drawn from it.
    products = []
    right_multiplier = FreeGroup.right_multiplier

    def counting(self, s):
        act = right_multiplier(self, s)

        def counted(gs):
            for p in act(gs):
                products.append((p, s))
                yield p
        return counted

    monkeypatch.setattr(FreeGroup, "right_multiplier", counting)
    with pytest.raises(BudgetExceededError) as err:
        dye_quantity_strict(free_group_standard(2), 3, element_budget=18)
    assert err.value.last_radius == 2
    assert len(products) == 16 + 2


def test_dye_strict_budget_boundary():
    # F^1, ..., F^2K are stored whole, sum |F^j| elements together: that
    # budget completes, one less stops while F^2K is being built
    for m in stock_markings():
        for K in (1, 2):
            total = sum(len(exact_products(m, j)) for j in range(1, 2 * K + 1))
            assert dye_quantity_strict(m, K, element_budget=total) == \
                dye_quantity_strict(m, K)
            with pytest.raises(BudgetExceededError) as err:
                dye_quantity_strict(m, K, element_budget=total - 1)
            assert err.value.last_radius == 2 * K - 1
            assert str(err.value) == \
                f"product-set enumeration exceeded budget {total - 1}"
    # F alone outgrows a budget smaller than |F|
    with pytest.raises(BudgetExceededError) as err:
        dye_quantity_strict(free_abelian_standard(3), 1, element_budget=2)
    assert err.value.last_radius == 1


def test_dye_strict_against_product_oracle():
    # h_1 = |F^1| and h_j = |F^j minus F^(j-1)|, with every F^j counted
    # from all j-fold products of the effective generating set
    rng = random.Random(2024)
    for make in (random_z2_set, random_f2_set, random_matrix_set):
        for symmetrize, size in ((True, 2), (False, 3)):
            for _ in range(4):
                fam, gens = make(rng, size)
                m = MarkedGroup(fam, gens, symmetrize)
                sets = [exact_products(m, j) for j in range(1, 5)]
                h = [len(sets[0])] + [len(b - a)
                                      for a, b in zip(sets, sets[1:])]
                for K in (1, 2):
                    best = min((Fraction(h[2 * k - 1], sum(h[:k])), k)
                               for k in range(1, K + 1))
                    res = dye_quantity_strict(m, K)
                    assert (res.value, res.argmin) == best, (gens, K)


def test_classify_free_group_exponential():
    table = enumerate_balls(free_group_standard(2), 12)
    report = classify(table)
    assert report.verdict == "evidence-exponential"
    assert report.polynomial_degree is None
    assert float(report.rate.minimum) > 1.1
    assert report.persistence > 0.8


def test_classify_abelian_polynomial():
    # small ranks need deep tables: the degree track converges like
    # log(constant)/log k, so shallow windows overshoot the tolerance
    for n, kmax in ((1, 25), (2, 24), (3, 20)):
        table = enumerate_balls(free_abelian_standard(n), kmax)
        report = classify(table)
        assert report.verdict == f"evidence-polynomial({n})"
        assert report.polynomial_degree == n


def test_classify_never_confuses_the_stock_families():
    # abelian groups must not look exponential even at shallow radius,
    # and the free group must never look polynomial
    for n in (1, 2, 3):
        table = enumerate_balls(free_abelian_standard(n), 12)
        assert classify(table).verdict != "evidence-exponential"
    table = enumerate_balls(free_group_standard(2), 12)
    assert not classify(table).verdict.startswith("evidence-polynomial")


def test_classify_heisenberg_shallow_is_inconclusive():
    # at radius 8 the Heisenberg degree track sits near 3.6, too far from
    # 4 for a polynomial verdict and too slow for the exponential gate
    table = enumerate_balls(heisenberg_group(), 8)
    report = classify(table)
    assert report.verdict == "inconclusive"


def test_classify_trivial_group():
    report = classify(ball_table([1] * 9))
    assert report.verdict == "evidence-polynomial(0)"
    assert report.polynomial_degree == 0


def test_classify_needs_radius():
    with pytest.raises(ArgumentError):
        classify(ball_table([1] * 6))


def ball_table(beta):
    sigma = [beta[0]] + [b - a for a, b in zip(beta, beta[1:])]
    return BallTable(len(beta) - 1, tuple(sigma), tuple(beta))


def test_classify_exact_persistence_boundary():
    # ln(1568/98) / ln(96/3) = ln 16 / ln 32 is exactly 4/5, and every
    # beta(k)^(1/k) is at least 1.1; the float ratio reads 0.79999...
    report = classify(ball_table([1, 2, 3, 96, 97, 98, 1568]))
    assert report.verdict == "evidence-exponential"
    assert report.polynomial_degree is None
    # one element fewer at the last radius drops below the threshold
    report = classify(ball_table([1, 2, 3, 96, 97, 98, 1567]))
    assert report.verdict == "inconclusive"


def test_classify_exact_degree_window_boundary():
    # beta(k) = k + 1 below radius 1024 and beta(1024) = 8192 = 1024^1.3,
    # so the degree track ends exactly on d + 3/10 with d = 1
    beta = list(range(1, 1025)) + [8192]
    report = classify(ball_table(beta))
    assert report.verdict == "evidence-polynomial(1)"
    assert report.polynomial_degree == 1
    beta[-1] += 1
    assert classify(ball_table(beta)).verdict == "inconclusive"
    # ln 27 / ln 9 = 3/2 ties between degrees 1 and 2 and fits neither
    tie = ball_table([1, 2, 3, 4, 8, 12, 16, 21, 26, 27])
    assert classify(tie).verdict == "inconclusive"


def test_classify_verdict_does_not_depend_on_digits():
    # the degree track sits near 3.65; rounded to one digit it would read
    # 4, but the verdict never looks at the decimal tracks
    beta = [1, 2, 14, 56, 159, 357, 693, 1216, 1979, 3042, 4468, 6326,
            8691, 11639, 15254]
    report = classify(ball_table(beta))
    assert round(report.degree.terminal) == 4
    assert report.verdict == "inconclusive"


def test_log_ratio_within_is_exact_at_both_ends():
    # ln 8 / ln 4 is exactly 3/2, and ln 1 / ln k is 0
    half = Fraction(3, 2)
    assert log_ratio_within(8, 4, half, Fraction(2))
    assert log_ratio_within(8, 4, Fraction(1), half)
    assert not log_ratio_within(8, 4, Fraction(151, 100), Fraction(2))
    assert not log_ratio_within(8, 4, Fraction(1), Fraction(149, 100))
    assert log_ratio_within(1, 5, Fraction(-3, 10), Fraction(3, 10))
    assert not log_ratio_within(1, 5, Fraction(1, 10), Fraction(3, 10))
    assert not log_ratio_within(7, 5, Fraction(-3, 10), Fraction(3, 10))


def test_classify_finite_group():
    # S_4 has diameter 6 under adjacent transpositions
    report = classify(enumerate_balls(symmetric_group_adjacent(4), 8))
    assert report.verdict == "evidence-polynomial(0)"
    assert report.polynomial_degree == 0
    assert report.persistence == 0.0


def float_verdict(beta):
    """The verdict recomputed in floats, or None when some quantity lies
    within 1e-9 of a threshold, where rounding could tip the float."""
    n = len(beta) - 1
    if beta[n] == beta[n - 1]:
        return "evidence-polynomial(0)"
    h = n // 2
    persistence = ((math.log(beta[n]) - math.log(beta[n - 1]))
                   / (math.log(beta[h]) - math.log(beta[h - 1])))
    rate = min(math.exp(math.log(beta[k]) / k) for k in range(1, n + 1))
    track = [math.log(beta[k]) / math.log(k)
             for k in range(2 * n // 3, n + 1)]
    d = math.floor(track[-1] + 0.5)
    margins = [rate - 1.1, persistence - 0.8,
               track[-1] - math.floor(track[-1]) - 0.5]
    margins += [abs(v - d) - 0.3 for v in track]
    if min(abs(m) for m in margins) < 1e-9:
        return None
    if rate >= 1.1 and persistence >= 0.8:
        return "evidence-exponential"
    if all(abs(v - d) <= 0.3 for v in track):
        return f"evidence-polynomial({d})"
    return "inconclusive"


def test_classify_matches_float_reference_away_from_thresholds():
    rng = random.Random(61)
    seen = {}
    for _ in range(300):
        n = rng.randint(6, 25)
        kind = rng.choice(("exponential", "polynomial", "finite"))
        if kind == "exponential":
            r = rng.uniform(1.02, 3.0)
            sigma = [max(1, round(rng.uniform(0.5, 2.0) * r ** k))
                     for k in range(1, n + 1)]
        elif kind == "polynomial":
            d, c = rng.randint(1, 4), rng.uniform(0.5, 4.0)
            sigma = [max(1, round(c * k ** (d - 1) * rng.uniform(0.8, 1.2)))
                     for k in range(1, n + 1)]
        else:
            m = rng.randint(1, n - 1)
            sigma = [rng.randint(1, 9) for _ in range(m)] + [0] * (n - m)
        beta = [1]
        for s in sigma:
            beta.append(beta[-1] + s)
        want = float_verdict(beta)
        if want is None:
            continue
        got = classify(ball_table(beta)).verdict
        assert got == want, beta
        seen[got] = seen.get(got, 0) + 1
    assert sum(seen.values()) >= 290
    assert seen["evidence-exponential"] >= 20
    assert seen["inconclusive"] >= 20
    assert sum(v for k, v in seen.items()
               if k.startswith("evidence-polynomial(")
               and k != "evidence-polynomial(0)") >= 20


def test_report_serialization():
    table = enumerate_balls(free_abelian_standard(2), 12)
    report = classify(table)
    d = report.to_json_dict()
    assert d["dye_quantity"]["value"] == str(report.dye.value)
    assert d["verdict"] == report.verdict
    assert isinstance(d["rate_upper"]["estimates"][0], str)
    assert d["thresholds"] == {"tau_exp": "0.1", "tau_deg": "0.3",
                               "rho_exp": "0.8"}


def test_asymmetric_marking_changes_diagnostics():
    # Z with only +1: balls grow linearly but one-sidedly
    m = MarkedGroup(FreeAbelian(1), ((1,),), symmetrize=False)
    table = enumerate_balls(m, 12)
    assert table.ball_sizes[12] == 13
    res = dye_quantity(table, 3)
    assert res.value == Fraction(1, 4)
    assert res.argmin == 3
