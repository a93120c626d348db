import random
from math import comb

import pytest

from growthlab.cayley import BallTable, enumerate_balls, word_length
from growthlab.errors import ArgumentError, BudgetExceededError
from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              MatrixGroup, PermutationGroup,
                              free_abelian_standard, free_group_standard,
                              heisenberg_group, symmetric_group_adjacent)
from growthlab.series import closed_form_free_abelian
from group_oracle import (exact_products, oracle_product, random_f2_set,
                          random_matrix_set, random_perm_set, random_z2_set,
                          stock_markings)


def abelian_ball(n: int, k: int) -> int:
    # |B(k)| in Z^n with the standard symmetric basis:
    # sum over the number i of nonzero coordinates
    return sum(comb(n, i) * comb(k, i) * 2 ** i for i in range(n + 1))


def test_z_spheres_match_closed_form():
    table = enumerate_balls(free_abelian_standard(1), 30)
    assert list(table.sphere_sizes) == closed_form_free_abelian(1).expand(30)
    assert list(table.ball_sizes) == [2 * k + 1 for k in range(31)]


def test_zn_balls_match_binomial_formula():
    for n in (1, 2, 3):
        table = enumerate_balls(free_abelian_standard(n), 12)
        for k in range(13):
            assert table.ball_sizes[k] == abelian_ball(n, k)


def test_free_group_spheres():
    table = enumerate_balls(free_group_standard(2), 8)
    assert table.sphere_sizes[0] == 1
    for k in range(1, 9):
        assert table.sphere_sizes[k] == 4 * 3 ** (k - 1)


def test_heisenberg_sphere_prefix():
    # exact values computed once and pinned; the first few can be checked
    # by hand from the two unipotent generators and their inverses
    table = enumerate_balls(heisenberg_group(), 8)
    assert list(table.sphere_sizes) == [1, 4, 12, 36, 82, 164, 294, 476, 724]


def test_finite_group_terminates():
    table = enumerate_balls(symmetric_group_adjacent(3), 10)
    assert list(table.sphere_sizes[:5]) == [1, 2, 2, 1, 0]
    assert table.ball_sizes[-1] == 6
    s4 = enumerate_balls(symmetric_group_adjacent(4), 10)
    assert s4.ball_sizes[-1] == 24
    assert max(k for k, s in enumerate(s4.sphere_sizes) if s) == 6


def brute_force_ball(m: MarkedGroup, k: int) -> int:
    """Count distinct products of at most k effective generators, formed
    by the oracle product without any visited-set machinery; oracle for
    small k only."""
    return len(set().union(*(exact_products(m, j) for j in range(k + 1))))


def test_bfs_against_brute_force_random_sets():
    # symmetrized sets run the windowed visited set, as-given sets the
    # full one; both must agree with plain product enumeration.  Three
    # as-given generators carry relations that lead back more than one
    # sphere, which a window would miss.
    rng = random.Random(777)
    for make in (random_z2_set, random_f2_set, random_matrix_set,
                 random_perm_set):
        for symmetrize, size in ((True, 2), (False, 3)):
            for _ in range(8):
                fam, gens = make(rng, size)
                m = MarkedGroup(fam, gens, symmetrize)
                table = enumerate_balls(m, 4)
                for k in range(5):
                    assert table.ball_sizes[k] == brute_force_ball(m, k)


def closure_spheres(m: MarkedGroup, k: int) -> list:
    """sigma(0..k) from the plain closure B(j) = B(j-1) u B(j-1)*S under
    the oracle product, with no visited window and no act order."""
    fam = m.family
    gens = m.effective_generating_set()
    ball = {fam.identity()}
    sigma = [1]
    for _ in range(k):
        grown = ball | {oracle_product(fam, g, s) for g in ball for s in gens}
        sigma.append(len(grown) - len(ball))
        ball = grown
    return sigma


def test_normal_form_search_against_closure():
    # the markings the search's two skipping rules are most exposed to:
    # commuting generators with dependent ones (s3 = s1 + s2), as-given
    # sets holding both s and -s, involutions, and det -1
    rng = random.Random(2024)
    markings = []
    for n, extra in ((2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(3):
            basis = [tuple(rng.choice((1, -1)) * int(i == j)
                           for j in range(n)) for i in range(n)]
            gens = list(basis)
            while len(gens) < n + extra:
                a, b = rng.sample(gens, 2)
                v = tuple(x + y for x, y in zip(a, b))
                if any(v) and v not in gens:
                    gens.append(v)
            rng.shuffle(gens)
            for symmetrize in (True, False):
                markings.append(MarkedGroup(FreeAbelian(n), tuple(gens),
                                            symmetrize))
            both = gens[:3] + [tuple(-x for x in gens[0])]
            markings.append(MarkedGroup(FreeAbelian(n), tuple(both), False))
    markings.append(MarkedGroup(FreeGroup(2), ((1,), (-1,), (2,), (1, 2)),
                                False))
    transpositions = PermutationGroup(5)
    markings += [MarkedGroup(transpositions, gens, symmetrize)
                 for gens in (((2, 1, 3, 4, 5), (1, 3, 2, 4, 5),
                               (2, 3, 4, 5, 1)),
                              ((1, 2, 4, 3, 5), (3, 2, 1, 4, 5)))
                 for symmetrize in (True, False)]
    plane = MatrixGroup(2)
    markings += [MarkedGroup(plane, (((-1, 0), (0, 1)), ((1, 1), (0, 1))),
                             symmetrize) for symmetrize in (True, False)]
    for m in markings:
        k = 5 if isinstance(m.family, FreeAbelian) and m.family.rank == 3 else 7
        assert list(enumerate_balls(m, k).sphere_sizes) == \
            closure_spheres(m, k), m.describe()


def test_search_skips_steps_back_and_later_commuting_letters(monkeypatch):
    # products drawn = items the acts yield.  F_2 forms only new words:
    # 4 from the identity and 3 from every other element of the 11-ball,
    # beta(12) - 1 in all.  Z^3 and the Heisenberg group form far fewer
    # than |B(k-1)|*|S| (1,685,754 and 221,812)
    drawn = [0]
    for fam in (FreeGroup, FreeAbelian, MatrixGroup):
        def counted(self, s, law=fam.right_multiplier):
            act = law(self, s)

            def count(gs):
                out = list(act(gs))
                drawn[0] += len(out)
                return out
            return count
        monkeypatch.setattr(fam, "right_multiplier", counted)
    for m, k, products in ((free_group_standard(2), 12, 1_062_880),
                           (free_abelian_standard(3), 60, 500_680),
                           (heisenberg_group(), 20, 166_360)):
        drawn[0] = 0
        enumerate_balls(m, k)
        assert drawn[0] == products, m.describe()


def test_symmetric_group_spheres_are_mahonian():
    # sigma(k) of S_n under adjacent transpositions counts permutations
    # with k inversions: the coefficients of prod_{i<=n} (1 + ... + z^(i-1))
    for n in range(2, 7):
        coeffs = [1]
        for i in range(2, n + 1):
            nxt = [0] * (len(coeffs) + i - 1)
            for j, c in enumerate(coeffs):
                for t in range(i):
                    nxt[j + t] += c
            coeffs = nxt
        table = enumerate_balls(symmetric_group_adjacent(n), len(coeffs))
        assert list(table.sphere_sizes) == coeffs + [0]


def test_asymmetric_generating_set():
    # Z marked with {+1} only: every sphere is a single element
    m = MarkedGroup(FreeAbelian(1), ((1,),), symmetrize=False)
    table = enumerate_balls(m, 6)
    assert list(table.sphere_sizes) == [1] * 7


def test_word_length_basics():
    m = free_abelian_standard(2)
    assert word_length(m, (0, 0), 5) == 0
    assert word_length(m, (1, 0), 5) == 1
    assert word_length(m, (3, -4), 10) == 7
    assert word_length(m, (3, -4), 5) is None


def test_word_length_finite_group_exhausts():
    m = symmetric_group_adjacent(3)
    # the longest element needs all three adjacent swaps
    assert word_length(m, (3, 2, 1), 10) == 3
    # kmax larger than the diameter still terminates once the frontier dies
    assert word_length(m, (3, 2, 1), 50) == 3


def test_budget_exceeded_carries_partial_table():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_balls(free_group_standard(2), 12, element_budget=500)
    exc = err.value
    assert exc.last_radius >= 1
    assert exc.partial is not None
    assert exc.partial.radius_max == exc.last_radius
    # the partial table is still internally consistent
    assert exc.partial.ball_sizes[-1] <= 500
    full = enumerate_balls(free_group_standard(2), exc.last_radius)
    assert exc.partial.sphere_sizes == full.sphere_sizes


def test_budget_message_names_what_was_reached():
    # F_2 balls are 1, 5, 17, 53, 161, 485: radius 6 runs out at 500
    # stored elements while expanding the 324-element sphere S(5)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_balls(free_group_standard(2), 12, element_budget=500)
    assert str(err.value) == (
        "element budget 500 exhausted while expanding radius 6: 500 "
        "elements stored, frontier |S(5)| = 324, next sphere estimate "
        "|S(5)|*|S| = 324*4 = 1296")
    assert err.value.last_radius == 5


def test_budget_of_exactly_the_ball_completes_it():
    # a budget of |B(k)| holds the k-ball; one less stops at radius k-1
    # with the whole budget stored, so the search neither stops short of
    # its budget nor stores past it
    for m in stock_markings():
        full = enumerate_balls(m, 5)
        for k in range(1, 6):
            beta = full.ball_sizes[k]
            table = enumerate_balls(m, k, element_budget=beta)
            assert table.sphere_sizes == full.sphere_sizes[:k + 1]
            with pytest.raises(BudgetExceededError) as err:
                enumerate_balls(m, k, element_budget=beta - 1)
            assert err.value.last_radius == k - 1
            assert f": {beta - 1} elements stored," in str(err.value)
            assert err.value.partial.sphere_sizes == full.sphere_sizes[:k]


def test_ball_table_validation():
    with pytest.raises(ArgumentError):
        BallTable(2, (1, 2, 2), (1, 3, 4))   # beta not partial sums
    with pytest.raises(ArgumentError):
        BallTable(1, (2, 2), (2, 4))         # sigma(0) must be 1
    with pytest.raises(ArgumentError):
        BallTable(-1, (), ())
    with pytest.raises(ArgumentError,
                       match="^table length does not match radius_max$"):
        BallTable(2, (1, 2), (1, 3))


def test_ball_table_is_immutable():
    table = BallTable(1, (1, 2), (1, 3), "Z")
    assert table == BallTable(1, (1, 2), (1, 3), group_description="Z")
    assert hash(table) == hash(BallTable(1, (1, 2), (1, 3), "Z"))
    with pytest.raises(AttributeError):
        table.sphere_sizes = (1, 4)
    with pytest.raises(AttributeError):
        del table.radius_max
    assert table.sphere_sizes == (1, 2) and table.radius_max == 1


def test_ball_table_refuses_a_sphere_after_an_empty_one():
    # no Cayley graph reaches past an empty sphere, and classify would
    # divide by a zero log increment on such a table
    with pytest.raises(ArgumentError):
        BallTable(6, (1, 2, 0, 0, 0, 0, 1), (1, 3, 3, 3, 3, 3, 4))
    with pytest.raises(ArgumentError):
        BallTable(3, (1, 0, 2, 2), (1, 1, 3, 5))
    finite = BallTable(6, (1, 2, 1, 0, 0, 0, 0), (1, 3, 4, 4, 4, 4, 4))
    assert finite.ball_sizes[-1] == 4


def test_ball_table_serialization():
    table = enumerate_balls(free_abelian_standard(1), 3)
    lines = table.to_csv_lines()
    assert lines[0] == "k,sigma,beta"
    assert lines[1] == "0,1,1"
    assert lines[-1] == "3,2,7"
    d = table.to_json_dict()
    assert d["sphere_sizes"] == ["1", "2", "2", "2"]
    assert d["radius_max"] == "3"


def test_enumerate_preconditions():
    m = free_abelian_standard(1)
    with pytest.raises(ArgumentError):
        enumerate_balls(m, -1)
    with pytest.raises(ArgumentError):
        enumerate_balls(m, 3, element_budget=0)
    with pytest.raises(ArgumentError):
        word_length(m, (1,), 3, element_budget=0)
    with pytest.raises(ArgumentError):
        word_length(free_abelian_standard(2), (0, 0), -1)
