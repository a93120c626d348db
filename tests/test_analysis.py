import math
from decimal import Decimal
from fractions import Fraction

import pytest

from growthlab.analysis import (DYE_AS_GIVEN_CONVENTION,
                                DYE_IDENTITY_CONVENTION, analyze_group,
                                classify, dye_quantity, dye_quantity_strict,
                                exponential_rate, krause_degree)
from growthlab.cayley import enumerate_balls, trivial_ball_table
from growthlab.errors import ArgumentError, BudgetExceededError
from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              free_abelian_standard, free_group_standard,
                              heisenberg_group)


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
        exponential_rate(trivial_ball_table(1))


def test_krause_degree_abelian():
    for n in (1, 2, 3):
        table = enumerate_balls(free_abelian_standard(n), 25)
        track = krause_degree(table)
        expected = math.log(table.ball_sizes[25]) / math.log(25)
        assert abs(float(track.terminal) - expected) < 1e-12
        assert abs(float(track.terminal) - n) <= 0.3
        assert track.value(2) == track.values[0]


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
    # and 2 more, not all 52 products of F^3
    products = []
    multiply = FreeGroup.multiply

    def counting(self, a, b):
        products.append((a, b))
        return multiply(self, a, b)

    monkeypatch.setattr(FreeGroup, "multiply", counting)
    with pytest.raises(BudgetExceededError) as err:
        dye_quantity_strict(free_group_standard(2), 3, element_budget=18)
    assert err.value.last_radius == 2
    assert len(products) == 16 + 2


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
    report = classify(trivial_ball_table(8))
    assert report.verdict == "evidence-polynomial(0)"
    assert report.polynomial_degree == 0


def test_classify_needs_radius():
    with pytest.raises(ArgumentError):
        classify(trivial_ball_table(5))


def test_report_serialization():
    table = enumerate_balls(free_abelian_standard(2), 12)
    report = classify(table)
    d = report.to_json_dict()
    assert d["dye_quantity"]["value"] == str(report.dye.value)
    assert d["verdict"] == report.verdict
    assert isinstance(d["rate_upper"]["estimates"][0], str)
    assert d["thresholds"]["tau_deg"] == repr(report.tau_deg)


def test_analyze_group_matches_manual_pipeline():
    m = free_abelian_standard(2)
    via_helper = analyze_group(m, 12)
    manual = classify(enumerate_balls(m, 12))
    assert via_helper == manual


def test_asymmetric_marking_changes_diagnostics():
    # Z with only +1: balls grow linearly but one-sidedly
    m = MarkedGroup(FreeAbelian(1), ((1,),), symmetrize=False)
    table = enumerate_balls(m, 12)
    assert table.ball_sizes[12] == 13
    res = dye_quantity(table, 3)
    assert res.value == Fraction(1, 4)
    assert res.argmin == 3
