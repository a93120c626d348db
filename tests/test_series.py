import random
from fractions import Fraction
from math import comb, gcd

import pytest

from growthlab import linalg
from growthlab.errors import ArgumentError
from growthlab.series import (RationalFunction, binomial_row, catalan,
                              closed_form_free_abelian, poly_eval, poly_mul,
                              poly_str, poly_trim, recognize_rational)


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

def test_poly_basics():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly_mul([], [1, 2]) == []
    assert poly_eval([1, 2, 3], Fraction(2)) == 17
    assert binomial_row(3) == [1, 3, 3, 1]
    assert binomial_row(4, -1) == [1, -4, 6, -4, 1]


def test_poly_str_signs():
    assert poly_str([1, -2, 1]) == "1 - 2z + z^2"
    assert poly_str([0, 1]) == "z"
    assert poly_str([-1, 0, 3]) == "-1 + 3z^2"
    assert poly_str([]) == "0"


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_make_normalizes():
    f = RationalFunction.make([2, 2], [2, -2])
    assert f == RationalFunction.make([1, 1], [1, -1])
    assert f.numerator == (1, 1)
    assert f.denominator == (1, -1)

    # common polynomial factors cancel
    g = RationalFunction.make(poly_mul([1, 1], [1, 5]), poly_mul([1, -1], [1, 5]))
    assert g == f

    # the constant term of the denominator ends up positive
    h = RationalFunction.make([1], [-1, 1])
    assert h.denominator[0] > 0
    assert h == RationalFunction.make([-1], [1, -1])


def test_make_zero_and_errors():
    zero = RationalFunction.make([0, 0], [5])
    assert zero.numerator == (0,)
    assert zero.denominator == (1,)
    with pytest.raises(ArgumentError):
        RationalFunction.make([1], [0, 1])
    with pytest.raises(ArgumentError):
        RationalFunction.make([1], [])


def test_fraction_coefficients_are_cleared():
    f = RationalFunction.make([Fraction(1, 2), Fraction(1, 3)], [1])
    assert f.numerator == (3, 2)
    assert f.denominator == (6,)


def _resultant(a, b):
    """The Sylvester resultant of two integer polynomials, ascending,
    with nonzero leading coefficients: nonzero exactly when they share
    no root."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return linalg.det_exact(rows)


def _random_poly(rng, degree, head=None):
    return ([rng.choice(head) if head else rng.randint(-3, 3)]
            + [rng.randint(-3, 3) for _ in range(degree - 1)]
            + [rng.choice([-2, -1, 1, 3])])[:degree + 1]


def _normalization_cases():
    rng = random.Random(2026)
    cases = []
    for i in range(150):
        # a planted common factor with a nonzero constant term, so the
        # denominator keeps one
        factor = _random_poly(rng, rng.randint(0, 3), head=[1, -1, 2, 3])
        num = poly_mul(_random_poly(rng, rng.randint(0, 4)), factor)
        den = poly_mul(_random_poly(rng, rng.randint(0, 3),
                                    head=[1, -1, 2, -3]), factor)
        if i % 3 == 0:
            num = [Fraction(c, rng.randint(1, 6)) for c in num]
            den = [Fraction(c, rng.randint(1, 6)) for c in den]
        cases.append((num, den))
    cases.append(([0, 0, 0], [-4, 2]))
    cases.append(([1, 2, 3, 4, 5, 6], [-2, 1]))  # numerator longer
    factor = _random_poly(rng, 10, head=[1])
    cases.append((poly_mul(_random_poly(rng, 20), factor),
                  poly_mul(_random_poly(rng, 20, head=[-1]), factor)))
    return cases


def test_make_is_the_normal_form():
    # checked without Berlekamp-Massey: the same value, a nonzero
    # resultant (coprime), joint content 1 and a positive Q(0)
    for num, den in _normalization_cases():
        r = RationalFunction.make(num, den)
        if not poly_trim(num):
            assert (r.numerator, r.denominator) == ((0,), (1,))
            continue
        assert poly_mul(r.numerator, den) == poly_mul(num, r.denominator)
        assert _resultant(list(r.numerator), list(r.denominator)) != 0
        assert gcd(*r.numerator, *r.denominator) == 1
        assert r.denominator[0] > 0


def test_expand_known_series():
    f = RationalFunction.make([1, 1], [1, -1])
    assert f.expand(6) == [1, 2, 2, 2, 2, 2, 2]
    geo = RationalFunction.make([1], [1, -2])
    assert geo.expand(8) == [2 ** k for k in range(9)]
    with pytest.raises(ArgumentError):
        f.expand(-1)


def test_expand_keeps_exact_fractions():
    f = RationalFunction.make([1], [2, -1])
    assert f.expand(3) == [Fraction(1, 2), Fraction(1, 4),
                           Fraction(1, 8), Fraction(1, 16)]


def test_evaluate():
    f = closed_form_free_abelian(2)
    assert f.evaluate(Fraction(1, 2)) == 9
    assert f.evaluate(1) is None  # pole at z = 1
    poly = RationalFunction.make([1, 2, 2, 1], [1])
    assert poly.evaluate(1) == 6


def test_closed_form_free_abelian():
    assert closed_form_free_abelian(0) == RationalFunction.make([1], [1])
    f = closed_form_free_abelian(2)
    assert f.numerator == (1, 2, 1)
    assert f.denominator == (1, -2, 1)
    assert f.expand(5) == [1, 4, 8, 12, 16, 20]
    with pytest.raises(ArgumentError):
        closed_form_free_abelian(-1)


def test_display_and_json():
    f = RationalFunction.make([1, 1], [1, -3])
    assert f.display() == "(1 + z) / (1 - 3z)"
    d = f.to_json_dict()
    assert d["numerator"] == ["1", "1"]
    assert d["denominator"] == ["1", "-3"]


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_recognize_geometric():
    seq = [2 ** k for k in range(12)]
    assert recognize_rational(seq) == RationalFunction.make([1], [1, -2])


def test_recognize_z_and_free_group():
    z = [1] + [2] * 30
    assert recognize_rational(z) == RationalFunction.make([1, 1], [1, -1])
    f2 = [1] + [4 * 3 ** (k - 1) for k in range(1, 13)]
    assert recognize_rational(f2) == RationalFunction.make([1, 1], [1, -3])


def test_recognize_polynomial_sequence():
    # finite support means denominator 1, provided the zero tail is long
    seq = [1, 2, 2, 1] + [0] * 9
    assert recognize_rational(seq) == RationalFunction.make([1, 2, 2, 1], [1])


def test_recognize_rejects_catalan():
    assert recognize_rational(catalan(11)) is None
    assert recognize_rational(catalan(20)) is None


def test_recognize_round_trip_random():
    rng = random.Random(314)
    accepted = 0
    for _ in range(80):
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [1] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
        f = RationalFunction.make(num, den)
        seq = f.expand(15)
        found = recognize_rational(seq, guard=4)
        assert found is not None
        assert found == f
        accepted += 1
    assert accepted == 80


def test_recognize_preconditions():
    # a prefix shorter than 2 guard + 2 terms is not recognized
    assert recognize_rational([1, 2, 3], guard=4) is None
    assert recognize_rational([1] * 9) is None
    assert recognize_rational([1] * 10) == RationalFunction.make([1], [1, -1])
    with pytest.raises(ArgumentError):
        recognize_rational([1] * 20, guard=0)


def test_recognize_guard_catches_late_break():
    # rational for 12 terms, then one corrupted tail value
    seq = RationalFunction.make([1], [1, -2]).expand(12)
    seq[-1] += 1
    assert recognize_rational(seq, guard=4) is None


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def convolution_catalan(kmax):
    """c_0..c_kmax by the convolution c_{k+1} = sum_i c_i c_{k-i}, the
    oracle for the ratio recurrence of `catalan`."""
    c = [1]
    for k in range(kmax):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c


def test_catalan_values():
    assert catalan(7) == [1, 1, 2, 5, 14, 42, 132, 429]
    c = catalan(20)
    for k, value in enumerate(c):
        assert value == comb(2 * k, k) // (k + 1)
    assert catalan(300) == convolution_catalan(300)
    assert catalan(0) == [1]
    with pytest.raises(ArgumentError):
        catalan(-1)
