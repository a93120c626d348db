"""The exact elimination routines against oracles that share no code
with them: the Leibniz permutation sum for determinants and pivot
minors, the largest nonzero minor for rank, and direct multiplication
for inverse, null spaces and LDL^T."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from growthlab.errors import StructuralError
from growthlab.linalg import (det_exact, ldl, mat_inverse_exact, nullspace,
                             rank)


def leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def minor_rank(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if leibniz([[m[r][c] for c in cs] for r in rs]):
                    return size
    return 0


def random_matrix(rng, rows, cols):
    """Small integer entries; one time in three a row is replaced by a
    combination of two others so that rank deficiency is common."""
    m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 1 / 3:
        a, b, c = rng.sample(range(rows), 3)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        m[c] = [s * x + t * y for x, y in zip(m[a], m[b])]
    return m


def test_det_matches_leibniz():
    rng = random.Random(11)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        expected = leibniz(m)
        singular += expected == 0
        assert det_exact(m) == expected
    assert singular >= 20


def test_rank_is_largest_nonzero_minor():
    rng = random.Random(12)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(m) == minor_rank(m)
    assert rank([[0, 0], [0, 0]]) == 0


def test_inverse_exists_exactly_for_unit_determinant():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if rng.random() < 0.5:
            # unimodular by shearing the identity
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(8):
                if n > 1:
                    i, j = rng.sample(range(n), 2)
                    c = rng.randint(-2, 2)
                    m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        d = leibniz(m)
        if d in (1, -1):
            inv = mat_inverse_exact(m)
            product = [[sum(m[i][k] * inv[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)]
            assert product == [[int(i == j) for j in range(n)]
                               for i in range(n)]
        else:
            expected = ("singular" if d == 0 else "not integral")
            with pytest.raises(StructuralError, match=expected):
                mat_inverse_exact(m)


def random_gram(rng, n, nonsingular=True):
    while True:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if (leibniz(b) != 0) == nonsingular:
            return [[sum(b[k][i] * b[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]


def test_ldl_reconstructs_gram():
    # the integer form: pivots p_i = m[i][i] are the leading principal
    # minors, L_ji = m[i][j] / p_i and D_i = p_i / p_{i-1}
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 4)
        g = random_gram(rng, n)
        m = ldl(g)
        assert all(type(v) is int for row in m for v in row)
        assert all(m[i][j] == 0 for i in range(n) for j in range(i))
        piv = [m[i][i] for i in range(n)]
        assert piv == [leibniz([row[:i + 1] for row in g[:i + 1]])
                       for i in range(n)]
        low = [[Fraction(m[j][i], piv[j]) for j in range(n)]
               for i in range(n)]
        d = [Fraction(piv[i], piv[i - 1] if i else 1) for i in range(n)]
        for i in range(n):
            assert low[i][i] == 1
            assert all(low[i][j] == 0 for j in range(i + 1, n))
            assert d[i] > 0
        rebuilt = [[sum(low[i][k] * d[k] * low[j][k] for k in range(n))
                    for j in range(n)] for i in range(n)]
        assert rebuilt == g
        # x^T G x = sum_i u_i^2 / (p_i p_{i-1}) with integer u_i
        x = [rng.randint(-5, 5) for _ in range(n)]
        form = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        u = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert sum(Fraction(u[i] ** 2, piv[i] * (piv[i - 1] if i else 1))
                   for i in range(n)) == form


def test_nullspace_basis():
    rng = random.Random(17)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        basis = nullspace(a, cols)
        assert len(basis) == cols - minor_rank(a)
        for v in basis:
            assert len(v) == cols
            assert all(type(c) is int for c in v)
            assert math.gcd(*v) == 1
            assert all(sum(r * c for r, c in zip(row, v)) == 0 for row in a)
        if basis:
            assert minor_rank(basis) == len(basis)


def test_nullspace_empty_and_full_rank():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert nullspace([[2, 1], [1, 3]], 2) == []
    assert nullspace([[1, 0, 0], [0, 5, 0], [0, 0, 7]], 3) == []
    assert nullspace([[2, 4, 6]], 3) == [[-2, 1, 0], [-3, 0, 1]]
    assert nullspace([[3, 2]], 2) == [[-2, 3]]


def test_ldl_rejects_non_positive_definite():
    rng = random.Random(16)
    cases = [[[0]], [[-1]], [[1, 2], [2, 1]], [[0, 1], [1, 0]],
             [[1, 0], [0, 0]]]
    for n in (2, 3, 4):
        g = random_gram(rng, n, nonsingular=False)  # semidefinite only
        cases.append(g)
        cases.append([[-x for x in row] for row in random_gram(rng, n)])
    for g in cases:
        with pytest.raises(StructuralError,
                           match="gram matrix is not positive definite"):
            ldl(g)
