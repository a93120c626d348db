import random
from fractions import Fraction
from math import comb

import pytest

from growthlab.errors import ArgumentError
from growthlab.series import (RationalFunction, catalan,
                              closed_form_free_abelian, poly_add, poly_divmod,
                              poly_eval, poly_gcd, poly_mul, poly_str,
                              poly_trim, recognize_rational)


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

def test_poly_basics():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_add([1, 2], [3, -2, 5]) == [4, 0, 5]
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly_mul([], [1, 2]) == []
    assert poly_eval([1, 2, 3], Fraction(2)) == 17


def test_poly_divmod_random_products():
    rng = random.Random(42)
    for _ in range(100):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        if not poly_trim(a) or not poly_trim(b):
            continue
        prod = poly_mul(a, b)
        q, r = poly_divmod(prod, b)
        assert r == []
        assert poly_trim([Fraction(x) for x in a]) == q


def test_poly_divmod_remainder():
    # z^2 + 1 = (z + 1)(z - 1) + 2
    q, r = poly_divmod([1, 0, 1], [1, 1])
    assert q == [-1, 1]
    assert r == [2]


def test_poly_gcd_is_monic():
    a = poly_mul([1, -1], [1, 1])
    b = poly_mul([1, -1], [1, 2])
    # the common factor 1 - z comes back monic in the leading coefficient
    assert poly_gcd(a, b) == [-1, 1]
    # coprime polynomials give the constant 1
    assert poly_gcd([1, 1], [1, -1]) == [1]


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


def test_arithmetic_matches_expansion():
    rng = random.Random(5)
    for _ in range(60):
        fs = []
        for _ in range(2):
            num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            den = [rng.choice([1, 2, -2, 3])] + \
                [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            fs.append(RationalFunction.make(num, den))
        f, g = fs
        fg = f.expand(12), g.expand(12)
        assert (f + g).expand(12) == [a + b for a, b in zip(*fg)]
        prod = f * g
        conv = [sum(fg[0][i] * fg[1][k - i] for i in range(k + 1))
                for k in range(13)]
        assert prod.expand(12) == conv
    f = RationalFunction.make([1, 1], [1, -1])
    assert f ** 3 == f * f * f
    assert f ** 0 == RationalFunction.make([1], [1])
    with pytest.raises(ArgumentError):
        f ** -1


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
