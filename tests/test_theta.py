import random
import sys

import pytest

from growthlab.errors import ArgumentError, StructuralError
from growthlab.gauss import r2_table
from growthlab.theta import (IntegralLattice, ThetaPrefix, theta3_power,
                             theta_coefficients)
from lattice_oracle import theta_naive

Z1 = IntegralLattice.make([[1]])
Z2 = IntegralLattice.make([[1, 0], [0, 1]])
A1 = IntegralLattice.make([[2]])
A2 = IntegralLattice.make([[2, 1], [1, 2]])


def random_gram(rng, n, spread=3):
    """B^T B for a random nonsingular integer B: always positive definite."""
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        det = _det(b)
        if det != 0:
            break
    return [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_known_prefixes():
    assert theta_coefficients(Z1, 9).counts == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert theta_coefficients(Z2, 2).counts == (1, 4, 4)
    assert theta_coefficients(A1, 8).counts == (1, 0, 2, 0, 0, 0, 0, 0, 2)


def test_a2_hexagonal_counts():
    pre = theta_coefficients(A2, 6)
    # minimal vectors of the hexagonal lattice: six of norm 2
    assert pre.counts[0] == 1
    assert pre.counts[1] == 0
    assert pre.counts[2] == 6
    assert pre.counts[6] == 6


def test_theta3_power():
    assert theta3_power(2, 5) == [1, 4, 4, 0, 4, 8]
    assert theta3_power(1, 9) == list(theta_coefficients(Z1, 9).counts)
    with pytest.raises(ArgumentError):
        theta3_power(0, 5)
    with pytest.raises(ArgumentError):
        theta3_power(2, -1)


def test_identity_lattices_match_power_form():
    for n in (1, 2, 3, 4):
        gram = [[int(i == j) for j in range(n)] for i in range(n)]
        L = IntegralLattice.make(gram)
        pre = theta_coefficients(L, 40)
        assert list(pre.counts) == theta3_power(n, 40)


def test_z2_matches_sum_of_squares_counts():
    pre = theta_coefficients(Z2, 100)
    assert list(pre.counts) == r2_table(100)


def test_enumeration_matches_naive_oracle():
    rng = random.Random(1203)
    for n in (1, 2, 3):
        for _ in range(4):
            gram = random_gram(rng, n)
            L = IntegralLattice.make(gram)
            fast = theta_coefficients(L, 30)
            slow = theta_naive(L, 30)
            assert fast.counts == slow.counts


def test_descent_does_not_recurse_per_coordinate():
    # a descent that recursed once per coordinate would need 40 frames
    # here; the iterative one runs within a few of its caller's
    L = IntegralLattice.make([[int(i == j) for j in range(40)]
                              for i in range(40)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        counts = theta_coefficients(L, 2).counts
    finally:
        sys.setrecursionlimit(limit)
    # r(1) = 2n, r(2) = 4 C(n, 2)
    assert counts == (1, 80, 3120)


def test_unimodular_invariance():
    # theta is a lattice invariant: U^T G U for unimodular U gives the
    # same counts
    rng = random.Random(9)
    gram = [[2, 1], [1, 2]]
    base = theta_coefficients(IntegralLattice.make(gram), 20).counts
    for _ in range(5):
        u = [[1, 0], [0, 1]]
        for _ in range(4):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]]
            else:
                u = [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]
        g2 = [[sum(u[k][i] * gram[k][l] * u[l][j]
                   for k in range(2) for l in range(2))
               for j in range(2)] for i in range(2)]
        assert theta_coefficients(IntegralLattice.make(g2), 20).counts == base


def test_prefix_invariants_enforced():
    with pytest.raises(ArgumentError):
        ThetaPrefix(2, (2, 0, 0))  # r(0) must be 1
    with pytest.raises(ArgumentError):
        ThetaPrefix(2, (1, 3, 0))  # odd count at positive norm
    with pytest.raises(ArgumentError,
                       match="^counts length does not match rmax$"):
        ThetaPrefix(2, (1, 0))
    with pytest.raises(ArgumentError):
        ThetaPrefix(-1, ())
    # a valid prefix passes
    ThetaPrefix(2, (1, 0, 6))


def test_gram_validation():
    with pytest.raises(StructuralError):
        IntegralLattice.make([])
    with pytest.raises(StructuralError):
        IntegralLattice.make([[1, 0]])
    with pytest.raises(StructuralError):
        IntegralLattice.make([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(StructuralError):
        IntegralLattice.make([[0]])  # not positive definite
    with pytest.raises(StructuralError):
        IntegralLattice.make([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(StructuralError):
        IntegralLattice.make([[1, 1], [1, 1]])  # singular


def test_theta_preconditions():
    with pytest.raises(ArgumentError):
        theta_coefficients(Z1, -1)
    with pytest.raises(ArgumentError):
        theta_naive(Z1, -1)
    assert theta_coefficients(Z1, 0).counts == (1,)


def test_serialization():
    pre = theta_coefficients(A1, 4)
    assert pre.to_csv_lines() == ["m,r", "0,1", "1,0", "2,2", "3,0", "4,0"]
    d = pre.to_json_dict()
    assert d["rmax"] == 4
    assert d["counts"] == ["1", "0", "2", "0", "0"]


def _divisor_sum(n, weight):
    return sum(weight(d) for d in range(1, n + 1) if n % d == 0)


# E8 as the Cartan matrix of its Dynkin diagram: a chain of seven nodes
# with the eighth attached to the third.  Its leading principal minors
# are 2, 3, 4, ..., so the integer descent runs with a common
# denominator above 1.
E8 = [[2, -1, 0, 0, 0, 0, 0, 0],
      [-1, 2, -1, 0, 0, 0, 0, 0],
      [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0],
      [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0],
      [0, 0, -1, 0, 0, 0, 0, 2]]


def test_e8_closed_form():
    # r(2m) = 240 sigma_3(m) and nothing at odd norms (SPLAG ch. 4)
    counts = theta_coefficients(IntegralLattice.make(E8), 8).counts
    assert [counts[2 * m] for m in range(1, 5)] == [
        240 * _divisor_sum(m, lambda d: d ** 3) for m in range(1, 5)]
    assert [counts[2 * m] for m in range(1, 5)] == [240, 2160, 6720, 17520]
    assert all(counts[m] == 0 for m in range(1, 9, 2))


def test_z4_jacobi_four_squares():
    # r_4(n) = 8 sum_{d | n, 4 does not divide d} d
    gram = [[int(i == j) for j in range(4)] for i in range(4)]
    counts = theta_coefficients(IntegralLattice.make(gram), 40).counts
    assert list(counts[1:]) == [
        8 * _divisor_sum(n, lambda d: d if d % 4 else 0)
        for n in range(1, 41)]


def test_a2_hexagonal_closed_form():
    # r(2n) = 6 (d_{1,3}(n) - d_{2,3}(n)), where d_{a,3}(n) counts the
    # divisors of n that are a mod 3; the form is even, so r(odd) = 0
    counts = theta_coefficients(A2, 60).counts

    def chi(d):
        return (0, 1, -1)[d % 3]

    assert [counts[2 * n] for n in range(1, 31)] == [
        6 * _divisor_sum(n, chi) for n in range(1, 31)]
    assert all(counts[m] == 0 for m in range(1, 61, 2))


def test_theta_run_eliminates_its_gram_once(monkeypatch, capsys):
    # one LDL^T elimination both checks the form and starts the descent
    from growthlab import linalg
    from growthlab.cli import main
    real, calls = linalg.ldl, []
    monkeypatch.setattr(linalg, "ldl",
                        lambda gram: calls.append(gram) or real(gram))
    for argv in (["--gram", "2 1", "--gram", "1 2"], ["--rank", "8"]):
        calls.clear()
        assert main(["theta", *argv, "--rmax", "4", "--no-timestamp"]) == 0
        assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "4,1136"
    lattice = IntegralLattice.make([[2, 1], [1, 2]])
    assert lattice.ldl == tuple(map(tuple, real(lattice.gram)))
