import random
from functools import partial
from itertools import islice
from math import comb

import pytest

from growthlab import cayley, linalg
from growthlab.analysis import dye_quantity_strict
from growthlab.cayley import BallTable, enumerate_balls, word_length
from growthlab.errors import ArgumentError, BudgetExceededError
from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              MatrixGroup, PermutationGroup,
                              UnitriangularGroup, free_abelian_standard,
                              free_group_standard, heisenberg_group,
                              symmetric_group_adjacent)
from growthlab.series import closed_form_free_abelian
from group_oracle import (exact_products, matrix_rows, matrix_twin,
                          oracle_product, random_f2_set, random_matrix_set,
                          random_perm_set, random_unitriangular_set,
                          random_z2_set, stock_markings)


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
                 random_perm_set, random_unitriangular_set):
        for symmetrize, size in ((True, 2), (False, 3)):
            for _ in range(8):
                fam, gens = make(rng, size)
                m = MarkedGroup(fam, gens, symmetrize)
                table = enumerate_balls(m, 4)
                for k in range(5):
                    assert table.ball_sizes[k] == brute_force_ball(m, k)


def test_unitriangular_spheres_are_those_of_their_rows():
    # a marking searched on packed Mal'cev coordinates has the spheres of
    # the same rows under MatrixGroup, on seeded markings of dims 2-4 to
    # radius 7 and of dims 5-6 to radius 5, taken both ways, and on the
    # stock Heisenberg marking
    rng = random.Random(71)
    markings = [(heisenberg_group(), 7), (heisenberg_group(False), 7)]
    for dims, k in (((2, 3, 4), 7), ((5, 6), 5)):
        for symmetrize, size in ((True, 2), (False, 3)) * 8:
            fam, gens = random_unitriangular_set(rng, size, dims)
            markings.append((MarkedGroup(fam, gens, symmetrize), k))
    assert {len(m.family.identity()) for m, _ in markings} == {1, 3, 6, 10, 15}
    for m, k in markings:
        twin = matrix_twin(m)
        assert type(twin.family) is MatrixGroup
        assert twin.describe() == m.describe()
        assert enumerate_balls(m, k) == enumerate_balls(twin, k)


def test_unitriangular_word_length_is_that_of_their_rows():
    # targets in and just past the kmax-ball, and one past the packing's
    # bound, which is outside the ball without a search; with kmax past
    # the budget that target is searched for, and the budget is reached
    rng = random.Random(73)
    for symmetrize, size in ((True, 2), (False, 3)) * 6:
        fam, gens = random_unitriangular_set(rng, size, range(2, 7))
        m = MarkedGroup(fam, gens, symmetrize)
        twin = matrix_twin(m)
        pool = m.effective_generating_set()
        for _ in range(6):
            g = fam.identity()
            for _ in range(rng.randint(0, 4)):
                g = oracle_product(fam, g, rng.choice(pool))
            assert word_length(m, g, 3) == \
                word_length(twin, matrix_rows(fam, g), 3)
        far = (10 ** 6,) + fam.identity()[1:]
        assert word_length(m, far, 3) is None
        assert word_length(twin, matrix_rows(fam, far), 3) is None
    with pytest.raises(BudgetExceededError):
        word_length(heisenberg_group(), (10 ** 6, 0, 0), 10 ** 6, 500)


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


def test_read_rule_is_one_end_and_one_back_per_act():
    # act i maps the lists j < end except back: under a commutative law
    # end = i + 1 and back is the earlier letter of i's pair, otherwise
    # end is every act and back the act of the inverse, when it is one
    assert cayley._read_rule(free_abelian_standard(2)) == (
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [(1, None), (2, 0), (3, None), (4, 2)])
    assert cayley._read_rule(free_abelian_standard(2, False))[1] == [
        (1, None), (2, None)]
    assert cayley._read_rule(free_group_standard(2))[1] == [
        (4, 2), (4, 3), (4, 0), (4, 1)]
    assert cayley._read_rule(free_group_standard(2, False))[1] == [
        (2, None), (2, None)]


def test_search_skips_steps_back_and_later_commuting_letters(monkeypatch):
    # products drawn = items the acts yield.  F_2 and Z^3 form only new
    # elements, beta(k) - 1 in all: F_2 4 words from the identity and 3
    # from every other element of the 11-ball, Z^3 each vector once along
    # its normal form sorted by inverse pair.  The Heisenberg group forms
    # far fewer than |B(k-1)|*|S| (221,812), on packed ints on the same
    # read rule as its rows.  enumerate_balls counts the spheres of a
    # free basis without searching, so the search is run directly on the
    # read rule both share
    drawn = [0]

    def counted(act):
        def count(gs):
            out = list(act(gs))
            drawn[0] += len(out)
            return out
        return count

    for fam in (FreeGroup, FreeAbelian, MatrixGroup):
        def multiplier(self, s, law=fam.right_multiplier):
            return counted(law(self, s))
        monkeypatch.setattr(fam, "right_multiplier", multiplier)

    def packed(self, gens, radius, law=UnitriangularGroup.packed):
        acts, pack = law(self, gens, radius)
        return [counted(act) for act in acts], pack
    monkeypatch.setattr(UnitriangularGroup, "packed", packed)
    for m, k, products in ((free_group_standard(2), 12, 1_062_880),
                           (free_abelian_standard(3), 60, 295_360),
                           (heisenberg_group(), 20, 166_360),
                           (matrix_twin(heisenberg_group()), 20, 166_360)):
        drawn[0] = 0
        gens, rule = cayley._read_rule(m)
        walk = partial(cayley._walk, m, rule, 10 ** 7)
        spheres = cayley._spheres(m, gens, k, walk)
        sigma = [1] + [sum(map(len, sphere))
                       for sphere, _ in islice(spheres, k)]
        assert drawn[0] == products, m.describe()
        assert sigma == list(enumerate_balls(m, k).sphere_sizes)


def test_unitriangular_searches_run_on_packed_ints():
    # the ball search, word_length and the product sets of
    # dye_quantity_strict all act on packed ints, since U_n(Z) has no
    # tuple act (its right_multiplier refuses), and agree with the rows
    # as flat matrices
    m = heisenberg_group()
    twin = matrix_twin(m)
    assert enumerate_balls(m, 8) == enumerate_balls(twin, 8)
    for g in ((1, 1, 1), (0, 3, 0), (2, -1, 1)):
        rows = ((1, g[0], g[1]), (0, 1, g[2]), (0, 0, 1))
        assert word_length(m, g, 8) == word_length(twin, rows, 8)
    assert dye_quantity_strict(m, 3) == dye_quantity_strict(twin, 3)


def superdiagonal(n: int, symmetrize: bool = True) -> MarkedGroup:
    return MarkedGroup(UnitriangularGroup(n), [
        [[int(r == c or (r == i and c == r + 1)) for c in range(n)]
         for r in range(n)] for i in range(n - 1)], symmetrize)


def test_a_search_past_its_packing_walks_again_on_a_wider_one(monkeypatch):
    # with kmax far past what the budget holds, a wide marking is packed
    # for a radius at most four times one it passes, and walks again on
    # a wider packing as it goes: its table, or its error and partial
    # table, are those of its rows as flat matrices.  So are the product
    # sets of dye_quantity_strict at a K far past what the budget holds
    radii, packed = [], UnitriangularGroup.packed

    def spy(self, gens, radius):
        radii.append(radius)
        return packed(self, gens, radius)
    monkeypatch.setattr(UnitriangularGroup, "packed", spy)

    def outcome(run, m):
        radii.clear()
        outcomes = []
        for marking in (m, matrix_twin(m)):
            try:
                outcomes.append(run(marking))
            except BudgetExceededError as exc:
                outcomes.append((str(exc), exc.last_radius, exc.partial))
        assert outcomes[0] == outcomes[1], m.describe()
        return outcomes[0]

    for m, kmax, budget in ((superdiagonal(6), 10 ** 40, 20_000),
                            (superdiagonal(8, False), 10 ** 40, 3_000),
                            (superdiagonal(12), 6, 2_000),
                            (superdiagonal(5), 7, 10 ** 7)):
        first = outcome(lambda g: enumerate_balls(g, kmax, budget), m)
        passed = first[1] + 1 if isinstance(first, tuple) else kmax
        assert len(radii) > 2 and max(radii) <= 4 * passed, radii
    for m, budget in ((superdiagonal(6), 3_000),
                      (superdiagonal(8, False), 3_000),
                      (superdiagonal(12), 2_000),
                      (superdiagonal(5), 1_000)):
        first = outcome(lambda g: dye_quantity_strict(g, 10 ** 6, budget), m)
        assert len(radii) > 2 and max(radii) <= 4 * (first[1] + 1), radii


def test_free_basis_spheres_are_those_of_the_tree():
    # the 2r-regular tree: 2r(2r-1)^(k-1) words of length k >= 1, and
    # r^k positive words when the basis is as given.  A counted ball
    # forms no element, so a budget far past memory still holds it
    for r in range(1, 5):
        sym = enumerate_balls(free_group_standard(r), 30, 10 ** 30)
        assert list(sym.sphere_sizes) == [1] + [
            2 * r * (2 * r - 1) ** (k - 1) for k in range(1, 31)]
        given = enumerate_balls(free_group_standard(r, False), 30, 10 ** 30)
        assert list(given.sphere_sizes) == [r ** k for k in range(31)]


def test_free_abelian_basis_spheres_match_the_binomial_sum():
    # a vector of length k >= 1 in Z^n has i nonzero coordinates, chosen
    # in C(n, i) ways, with 2^i signs and C(k-1, i-1) compositions of k.
    # The stock rank-1000 marking is counted on a read rule of two ints
    # per act, its 12-ball of 31 digits within the budget
    for n, kmax in [(n, 40) for n in range(1, 6)] + [(1000, 12)]:
        table = enumerate_balls(free_abelian_standard(n), kmax, 10 ** 40)
        assert list(table.sphere_sizes) == [1] + [
            sum(2 ** i * comb(n, i) * comb(k - 1, i - 1)
                for i in range(1, n + 1)) for k in range(1, kmax + 1)], n


def test_single_letter_markings_against_closure():
    # any set of signed letters marks a tree, with or without inverses;
    # its spheres are counted, not searched, and must still count right
    rng = random.Random(26)
    for _ in range(24):
        r = rng.randint(1, 3)
        letters = [l for l in range(-r, r + 1) if l]
        gens = [(l,) for l in rng.sample(letters, rng.randint(1, 2 * r))]
        for symmetrize in (True, False):
            m = MarkedGroup(FreeGroup(r), gens, symmetrize)
            assert m.family.free_basis(m.effective_generating_set())
            assert list(enumerate_balls(m, 5).sphere_sizes) == \
                closure_spheres(m, 5), m.describe()


# {a, b, ab} and {a, a^2, b}: F_2 markings whose products repeat
NOT_TREES = (((1,), (2,), (1, 2)), ((1,), (1, 1), (2,)))


def test_free_markings_that_are_not_trees_still_dedupe():
    for gens in NOT_TREES:
        for symmetrize in (True, False):
            m = MarkedGroup(FreeGroup(2), gens, symmetrize)
            assert not m.family.free_basis(m.effective_generating_set())
            assert list(enumerate_balls(m, 6).sphere_sizes) == \
                closure_spheres(m, 6), m.describe()


def random_zn_markings(rng, count):
    """Random markings of Z^1..Z^3 with entries -3..3 and 1 to d+2
    distinct generators, each symmetrized and as given, then as-given
    markings that list some v and -v both."""
    markings = []
    for _ in range(count):
        d = rng.randint(1, 3)
        size, gens = rng.randint(1, d + 2), []
        while len(gens) < size:
            v = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(v) and v not in gens:
                gens.append(v)
        markings += [MarkedGroup(FreeAbelian(d), gens, symmetrize)
                     for symmetrize in (True, False)]
        # a repeated -v is dropped from the effective generating set
        both = gens + [tuple(-x for x in rng.choice(gens))]
        markings.append(MarkedGroup(FreeAbelian(d), both, False))
    return markings


def test_free_abelian_markings_against_closure():
    # the pair rule walks every marking along one normal form, and a
    # vouched marking is counted on the same rule; both must count right
    markings = random_zn_markings(random.Random(28), 90)
    vouched = [m.family.free_basis(m.effective_generating_set())
               for m in markings]
    assert any(vouched) and not all(vouched)
    for m in markings:
        assert list(enumerate_balls(m, 6).sphere_sizes) == \
            closure_spheres(m, 6), m.describe()


# Z^n markings vouched for as free bases: the standard basis, a scaled
# one, and vectors with private coordinates 1 and 2
FREE_BASES = ([free_abelian_standard(n, symmetrize) for n in range(1, 5)
               for symmetrize in (True, False)]
              + [MarkedGroup(FreeAbelian(n), gens, symmetrize)
                 for n, gens in ((2, ((2, 0), (0, 3))),
                                 (3, ((1, 0, 1), (0, 1, 1))))
                 for symmetrize in (True, False)])
# {e1, e2, e1 + e2} and {v, 2v} are dependent.  {(1, 1), (1, -1)} is
# independent but has no private coordinate, so it is not vouched for
NOT_FREE_BASES = (((1, 0), (0, 1), (1, 1)), ((1, 2), (2, 4)),
                  ((1, 1), (1, -1)))


def test_counted_free_bases_against_closure():
    # the count reads the search's rule and forms no element, so check it
    # against the plain closure on the vouched Z^n bases and an as-given
    # one that lists v and -v (single letters are checked above)
    given_both = MarkedGroup(FreeAbelian(2), ((1, 0), (-1, 0), (0, 1)), False)
    for m in FREE_BASES + [given_both]:
        assert m.family.free_basis(m.effective_generating_set())
        assert list(enumerate_balls(m, 5).sphere_sizes) == \
            closure_spheres(m, 5), m.describe()


def test_a_free_basis_is_counted_and_word_length_searches_it(monkeypatch):
    passed, expand = [], cayley.expand

    def refuse(*args):
        raise AssertionError("a free basis formed an element")

    def recording(acts, batches, seen, room):
        passed.append(seen)
        return expand(acts, batches, seen, room)
    monkeypatch.setattr(cayley, "expand", recording)
    # markings that are not free bases are searched with a visited set
    for symmetrize in (True, False):
        passed.clear()
        enumerate_balls(MarkedGroup(FreeGroup(2), NOT_TREES[0], symmetrize), 5)
        assert len(passed) == 5 and all(isinstance(s, set) for s in passed)
        for gens in NOT_FREE_BASES:
            passed.clear()
            enumerate_balls(MarkedGroup(FreeAbelian(2), gens, symmetrize), 5)
            assert len(passed) == 5 and all(isinstance(s, set)
                                            for s in passed), gens
    # word_length searches every marking, free bases too, with a set
    passed.clear()
    assert word_length(free_group_standard(2), [1, 2, -1], 5) == 3
    assert word_length(free_abelian_standard(3), (1, -2, 0), 5) == 3
    assert len(passed) == 6 and all(isinstance(s, set) for s in passed)
    # a free basis is counted: no frontier step runs and no act is built
    monkeypatch.setattr(cayley, "expand", refuse)
    for fam in (FreeGroup, FreeAbelian):
        monkeypatch.setattr(fam, "right_multiplier", refuse)
    for m in FREE_BASES + [free_group_standard(2, symmetrize)
                           for symmetrize in (True, False)]:
        assert enumerate_balls(m, 5).sphere_sizes[5] > 0, m.describe()


def test_free_basis_runs_no_elimination(monkeypatch):
    # the private-coordinate test is linear in the entries; a rank by
    # elimination would be cubic in the stock rank-400 marking
    def refused(rows):
        raise AssertionError("free_basis ran an elimination")
    monkeypatch.setattr(linalg, "_echelon", refused)
    m = free_abelian_standard(400)
    assert m.family.free_basis(m.effective_generating_set())


def test_word_length_under_the_standard_basis_is_the_l1_norm():
    rng = random.Random(1)
    for n in (1, 2, 3):
        m = free_abelian_standard(n)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            assert word_length(m, v, 9) == sum(map(abs, v)), v


def test_word_length_of_a_reduced_word_is_its_length():
    rng = random.Random(12)
    for r in (1, 2, 3):
        m = free_group_standard(r)
        for _ in range(10):
            word, n = [], rng.randint(0, 6)
            while len(word) < n:
                l = rng.choice([l for l in range(-r, r + 1) if l])
                if not word or word[-1] != -l:
                    word.append(l)
            assert word_length(m, word, 6) == len(word), word
    # as given, a word with an inverse letter is never reached
    given = free_group_standard(2, False)
    assert word_length(given, [1, 2, 2], 5) == 3
    assert word_length(given, [1, -2], 5) is None


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
    assert word_length(free_abelian_standard(1), (5,), 3) is None


def test_word_length_finite_group_exhausts():
    m = symmetric_group_adjacent(3)
    # the longest element needs all three adjacent swaps
    assert word_length(m, (3, 2, 1), 10) == 3
    # kmax larger than the diameter still terminates once the frontier dies
    assert word_length(m, (3, 2, 1), 50) == 3


def test_an_exhausted_search_ends_with_its_group(monkeypatch):
    # S_4 under adjacent transpositions has diameter 6: the search takes
    # its 6 steps and finds the 7th sphere empty, and the table is padded
    # with empty spheres once, so kmax 10^6 runs no more steps than 6
    steps, expand = [0], cayley.expand

    def counted(*args):
        steps[0] += 1
        return expand(*args)
    monkeypatch.setattr(cayley, "expand", counted)
    table = enumerate_balls(symmetric_group_adjacent(4), 10 ** 6)
    assert steps[0] <= 7
    assert table.sphere_sizes == (1, 3, 5, 6, 5, 3, 1) + (0,) * (10 ** 6 - 6)
    assert table.radius_max == 10 ** 6 and table.ball_sizes[-1] == 24


def test_word_length_in_an_exhausted_group_returns_at_once():
    # the search ends with the group, so a kmax of 10^40 costs nothing
    # more: the longest element of S_4 has length 6, and a permutation
    # outside the subgroup a marking generates is never reached
    s4 = symmetric_group_adjacent(4)
    assert word_length(s4, (4, 3, 2, 1), 10 ** 40) == 6
    swap = MarkedGroup(PermutationGroup(4), ((2, 1, 3, 4),))
    assert word_length(swap, (1, 2, 4, 3), 10 ** 40) is None


def test_rows_of_an_exhausted_group_count_against_the_budget():
    # S_3 has its 6 elements within radius 3.  A budget of 50 holds them
    # and a table of 50 rows, but not the 101 rows of kmax 100: those are
    # refused once the search ends, with the table through radius 3
    m = symmetric_group_adjacent(3)
    table = enumerate_balls(m, 49, element_budget=50)
    assert table.sphere_sizes == (1, 2, 2, 1) + (0,) * 46
    with pytest.raises(BudgetExceededError) as err:
        enumerate_balls(m, 100, element_budget=50)
    assert str(err.value) == (
        "a table of 101 rows exceeds the element budget 50: the group has "
        "no element past radius 3")
    assert err.value.last_radius == 3
    assert err.value.partial.sphere_sizes == (1, 2, 2, 1)


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
    # its budget nor stores past it.  The stock F_2 and Z^n markings are
    # free bases, which keep no visited set
    markings = list(stock_markings())
    assert any(m.family.free_basis(m.effective_generating_set())
               for m in markings)
    for m in markings:
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
        BallTable((2, 2))         # sigma(0) must be 1
    with pytest.raises(ArgumentError):
        BallTable(())             # no sphere of radius 0 at all
    with pytest.raises(ArgumentError,
                       match="^sphere sizes must be nonnegative$"):
        BallTable((1, -1, 2))
    # the radius and the ball sizes are read off the spheres
    table = BallTable((1, 2, 2))
    assert table.radius_max == 2 and table.ball_sizes == (1, 3, 5)


def test_ball_table_is_immutable():
    table = BallTable((1, 2), "Z")
    assert table == BallTable((1, 2), group_description="Z")
    assert hash(table) == hash(BallTable((1, 2), "Z"))
    with pytest.raises(AttributeError):
        table.sphere_sizes = (1, 4)
    with pytest.raises(AttributeError):
        del table.radius_max
    assert table.sphere_sizes == (1, 2) and table.radius_max == 1


def test_ball_table_refuses_a_sphere_after_an_empty_one():
    # no Cayley graph reaches past an empty sphere, and classify would
    # divide by a zero log increment on such a table
    with pytest.raises(ArgumentError):
        BallTable((1, 2, 0, 0, 0, 0, 1))
    with pytest.raises(ArgumentError):
        BallTable((1, 0, 2, 2))
    finite = BallTable((1, 2, 1, 0, 0, 0, 0))
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
    for m in (heisenberg_group(), free_abelian_standard(2)):
        for budget in (0, -5):
            with pytest.raises(ArgumentError,
                               match="element_budget must be positive"):
                dye_quantity_strict(m, 2, element_budget=budget)
