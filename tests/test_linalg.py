"""The exact elimination routines against oracles that share no code
with them: the Leibniz permutation sum for determinants, the largest
nonzero minor for rank, and direct multiplication for solve, inverse
and LDL^T."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from growthlab.errors import StructuralError
from growthlab.linalg import det_exact, ldl, mat_inverse_exact, rank, solve


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


def test_solve_satisfies_the_system():
    rng = random.Random(13)
    solved = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        a = random_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            # consistent by construction
            x = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(r[j] * x[j] for j in range(cols)) for r in a]
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        c = solve(a, b)
        full_column_rank = minor_rank(a) == cols
        consistent = minor_rank([r + [v] for r, v in zip(a, b)]) == minor_rank(a)
        if c is None:
            assert not (full_column_rank and consistent)
        else:
            solved += 1
            assert all(isinstance(v, Fraction) for v in c)
            assert [sum(r[j] * c[j] for j in range(cols)) for r in a] == b
    assert solved >= 50


def test_solve_returns_fractions():
    assert solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert solve([[1, 1], [1, 1]], [1, 2]) is None  # inconsistent
    assert solve([[1, 1]], [1]) is None  # underdetermined


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
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 4)
        g = random_gram(rng, n)
        low, d = ldl(g)
        for i in range(n):
            assert low[i][i] == 1
            assert all(low[i][j] == 0 for j in range(i + 1, n))
            assert d[i] > 0
        rebuilt = [[sum(low[i][k] * d[k] * low[j][k] for k in range(n))
                    for j in range(n)] for i in range(n)]
        assert rebuilt == g


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
