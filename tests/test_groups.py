import importlib
import itertools
import pkgutil
import random
from math import comb

import pytest

import growthlab
from growthlab import groups
from growthlab.cayley import enumerate_balls
from growthlab.errors import ConfigError, Record, StructuralError
from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              MatrixGroup, PermutationGroup,
                              UnitriangularGroup, det_exact,
                              free_abelian_standard, free_group_standard,
                              heisenberg_group, mat_inverse_exact,
                              symmetric_group_adjacent)
from group_oracle import (free_letters, free_reduce, matrix_rows,
                          matrix_twin, oracle_product,
                          random_unitriangular_set)


def mul(fam, a, b):
    """a*b through the group law under test, as a batch of one."""
    [ab] = fam.right_multiplier(b)([a])
    return ab


def test_free_abelian_group_law():
    fam = FreeAbelian(3)
    rng = random.Random(101)
    for _ in range(200):
        a = tuple(rng.randint(-9, 9) for _ in range(3))
        b = tuple(rng.randint(-9, 9) for _ in range(3))
        assert mul(fam, a, b) == tuple(x + y for x, y in zip(a, b))
        assert mul(fam, a, fam.inverse(a)) == fam.identity()
        assert fam.canonicalize(list(a)) == a


def test_free_abelian_rejects_wrong_arity():
    fam = FreeAbelian(2)
    with pytest.raises(StructuralError):
        fam.canonicalize((1, 2, 3))
    with pytest.raises(StructuralError):
        fam.canonicalize((1, "x"))


def test_free_abelian_refuses_a_bad_entry_of_a_long_vector():
    # the one-pass type check hands a failing vector to the per-entry
    # check, which names its first bad entry and keeps int subclasses
    class Count(int):
        pass
    fam = FreeAbelian(50)
    for bad in (True, 1.0, "1"):
        vec = [Count(2)] * 50
        vec[37], vec[45] = bad, None
        with pytest.raises(StructuralError) as err:
            fam.canonicalize(vec)
        assert str(err.value) == f"vector entry must be an integer, got {bad!r}"
        with pytest.raises(StructuralError) as err:
            MarkedGroup(fam, [[1] * 50, vec])
        assert err.value.index == 1
    vec = fam.canonicalize([Count(2)] * 50)
    assert vec == (2,) * 50 and type(vec[0]) is Count


def test_a_size_no_row_matches_is_refused_by_the_row():
    # the identity of a declared size is built only once a generator of
    # that size exists: a huge size is refused by its first row, with no
    # identity allocated (and none that cannot fit in memory at all)
    for fam, row in ((FreeAbelian(10 ** 40), (1, 0, 0)),
                     (MatrixGroup(10 ** 40), ((1, 1), (0, 1))),
                     (UnitriangularGroup(10 ** 40), ((1, 1), (0, 1))),
                     (PermutationGroup(10 ** 40), (2, 1))):
        with pytest.raises(StructuralError) as err:
            MarkedGroup(fam, [row])
        assert err.value.index == 0


def _check_free_group_reduction(fam, rng, lengths):
    letters = [l for i in range(1, fam.rank + 1) for l in (i, -i)]
    for _ in range(300):
        word = [rng.choice(letters) for _ in range(rng.randint(0, lengths))]
        w = fam.canonicalize(word)
        out = free_letters(fam, w)
        for i in range(len(out) - 1):
            assert out[i] != -out[i + 1]
        assert fam.element_repr(mul(fam, w, fam.inverse(w))) == "e"
        assert fam.element_repr(mul(fam, fam.inverse(w), w)) == "e"
        assert free_letters(fam, fam.inverse(w)) == \
            tuple(-l for l in reversed(out))


def _check_free_group_associativity(fam, rng):
    letters = [l for i in range(1, fam.rank + 1) for l in (i, -i)]
    for _ in range(100):
        words = [
            fam.canonicalize([rng.choice(letters)
                              for _ in range(rng.randint(0, 6))])
            for _ in range(3)
        ]
        a, b, c = words
        assert mul(fam, mul(fam, a, b), c) == mul(fam, a, mul(fam, b, c))


def test_free_group_reduction():
    fam = FreeGroup(2)
    assert fam.element_repr(fam.canonicalize([1, -1])) == "e"
    assert fam.element_repr(fam.canonicalize([1, 2, -2, -1])) == "e"
    assert fam.element_repr(fam.canonicalize([1, 2, -1])) == "x1*x2*x1^-1"
    # random words always come out freely reduced and invert correctly
    _check_free_group_reduction(fam, random.Random(7), 12)


def test_free_group_letter_range():
    fam = FreeGroup(2)
    with pytest.raises(StructuralError):
        fam.canonicalize([0])
    with pytest.raises(StructuralError):
        fam.canonicalize([3])


def test_free_group_associativity_sample():
    _check_free_group_associativity(FreeGroup(2), random.Random(11))


def test_free_group_rank_200():
    # base 401: the digits run up to 400
    fam = FreeGroup(200)
    assert fam.element_repr(fam.canonicalize([200, -199, 199, 1])) == \
        "x200*x1"
    assert fam.element_repr(fam.canonicalize([-200, 200])) == "e"
    assert fam.element_repr(fam.inverse(fam.canonicalize([200, -3]))) == \
        "x3*x200^-1"
    rng = random.Random(13)
    _check_free_group_reduction(fam, rng, 12)
    _check_free_group_associativity(fam, rng)
    table = enumerate_balls(free_group_standard(200), 2)
    assert list(table.sphere_sizes) == [1, 400, 400 * 399]


def test_free_group_int_form():
    # a word is one int in base 2*rank + 1, last letter least
    # significant: letter l > 0 is the digit l, letter -l the digit
    # rank + l, the empty word 0
    f2 = FreeGroup(2)
    assert f2.identity() == 0
    assert f2.canonicalize([1, -2]) == 1 * 5 + 4
    assert f2.canonicalize([-1, 2, 2]) == (3 * 5 + 2) * 5 + 2
    assert FreeGroup(200).canonicalize([-200, 7]) == 400 * 401 + 7

    for fam, length in ((f2, 30), (FreeGroup(200), 10)):
        rng = random.Random(fam.rank)
        letters = [l for i in range(1, fam.rank + 1) for l in (i, -i)]
        for _ in range(200):
            word = [rng.choice(letters)
                    for _ in range(rng.randint(0, length))]
            reduced = free_reduce(word)
            w = fam.canonicalize(word)
            assert isinstance(w, int) and not isinstance(w, bool)
            assert fam.canonicalize(w) == w
            assert free_letters(fam, w) == reduced
            inv = fam.inverse(w)
            assert fam.canonicalize(inv) == inv
            assert free_letters(fam, inv) == \
                tuple(-l for l in reversed(reduced))
            assert fam.inverse(inv) == w

    # an int is a word only when it is nonnegative and no digit is 0
    for bad in (-1, -5, True, False, 5, 25, 5 ** 7 + 1):
        with pytest.raises(StructuralError):
            f2.canonicalize(bad)
    with pytest.raises(StructuralError):
        FreeGroup(200).canonicalize(401 * 3)

    # digits that spell an unreduced word are reduced as its letters are
    for fam in (f2, FreeGroup(200)):
        r, base = fam.rank, 2 * fam.rank + 1
        rng = random.Random(base)
        for _ in range(200):
            word = [rng.choice((1, -1)) * rng.randint(1, r)
                    for _ in range(rng.randint(0, 12))]
            spelled = 0
            for l in word:
                spelled = spelled * base + (l if l > 0 else r - l)
            assert fam.canonicalize(spelled) == fam.canonicalize(word)


def test_det_exact_small_cases():
    assert det_exact(((1, 2), (3, 4))) == -2
    assert det_exact(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert det_exact(((1, 2), (2, 4))) == 0


def _random_unimodular(n, rng):
    # start from the identity and shear with random row operations,
    # which keeps the determinant at +1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(15):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


def test_matrix_inverse_round_trip():
    rng = random.Random(23)
    fam = MatrixGroup(3)
    ident = fam.identity()
    for _ in range(50):
        a = _random_unimodular(3, rng)
        assert det_exact(a) == 1
        inv = mat_inverse_exact(a)
        a, inv = fam.canonicalize(a), fam.canonicalize(inv)
        assert oracle_product(fam, a, inv) == ident
        assert oracle_product(fam, inv, a) == ident


def test_matrix_inverse_rejects_non_unimodular():
    with pytest.raises(StructuralError):
        mat_inverse_exact(((2, 0), (0, 1)))
    with pytest.raises(StructuralError):
        mat_inverse_exact(((1, 1), (1, 1)))


def test_matrix_generator_determinant_check():
    fam = MatrixGroup(2)
    assert fam.canonicalize([[0, 1], [1, 0]]) == (0, 1, 1, 0)  # det -1
    for bad in (((2, 0), (0, 1)), ((1, 1), (1, 1))):
        with pytest.raises(StructuralError, match="determinant"):
            fam.canonicalize(bad)


def test_matrix_canonicalize_takes_rows_and_flat_form():
    # an element is one flat row-major tuple of dim*dim ints; rows and
    # the flat form are told apart by whether the first entry is a
    # sequence, so dim 1 works as any other
    rng = random.Random(29)
    for dim in (1, 2, 3, 4):
        fam = MatrixGroup(dim)
        assert fam.identity() == tuple(int(i == j) for i in range(dim)
                                       for j in range(dim))
        if dim == 1:
            samples = [((1,),), ((-1,),)]
        else:
            samples = [_random_unimodular(dim, rng) for _ in range(20)]
            samples += [((tuple(-x for x in a[0]),) + a[1:])
                        for a in samples[:10]]
        for rows in samples:
            flat = tuple(x for row in rows for x in row)
            assert fam.canonicalize(rows) == flat
            assert fam.canonicalize([list(row) for row in rows]) == flat
            assert fam.canonicalize(flat) == flat
            assert fam.canonicalize(list(flat)) == flat
            assert matrix_rows(fam, flat) == rows
            assert fam.inverse(flat) == \
                fam.canonicalize(mat_inverse_exact(rows))


def test_matrix_canonicalize_refusals():
    fam = MatrixGroup(2)
    # wrong shape, flat or as rows
    for bad in ((1, 0, 0), (1, 0, 0, 1, 0), (1,), ((1, 0), (0, 1), (0, 0)),
                ((1, 0), (0,)), ((1, 0, 0, 1),)):
        with pytest.raises(StructuralError, match="not 2x2"):
            fam.canonicalize(bad)
    # a bool or a float is no matrix entry, in either form
    for bad in ((True, 0, 0, 1), (1, 0, 0, True), ((True, 0), (0, 1)),
                ((1, 0), (0, True)), (1, 0.0, 0, 1), (1.0, 0, 0, 1)):
        with pytest.raises(StructuralError, match="integer"):
            fam.canonicalize(bad)
    # an int among rows is no row
    with pytest.raises(StructuralError, match="matrix row must be a "
                                              "sequence, got 5"):
        fam.canonicalize(((1, 0), 5))
    # the determinant must be +-1, in either form
    for bad in ((2, 0, 0, 1), (1, 1, 1, 1), ((0, 0), (0, 0)), ((3, 1), (1, 1))):
        with pytest.raises(StructuralError, match="determinant"):
            fam.canonicalize(bad)
    with pytest.raises(StructuralError, match="determinant 3"):
        MatrixGroup(1).canonicalize((3,))


def test_canonicalize_refuses_objects_that_are_not_sequences():
    # every family reads an element from a sequence; a bare int is the
    # free group's own word form and no other family's element
    for fam, what in ((FreeAbelian(2), "vector"), (FreeGroup(2), "word"),
                      (MatrixGroup(2), "matrix"),
                      (UnitriangularGroup(2), "matrix"),
                      (PermutationGroup(2), "permutation")):
        bad = [None, 1.5, object()] + [5] * (what != "word")
        for obj in bad:
            with pytest.raises(StructuralError,
                               match=f"{what} must be a sequence, got "):
                fam.canonicalize(obj)
    assert FreeGroup(2).canonicalize(7) == 7  # the word x1*x2


@pytest.mark.parametrize("fam, obj, message", [
    (FreeGroup(2), (1, 2.0), "letter must be an integer, got 2.0"),
    (FreeGroup(2), (True,), "letter must be an integer, got True"),
    (MatrixGroup(2), ((1, 0), (0, "1")),
     "matrix entry must be an integer, got '1'"),
    (MatrixGroup(2), (1, 0, 0, 1.0),
     "matrix entry must be an integer, got 1.0"),
    (MatrixGroup(2), ((1, 0), 1), "matrix row must be a sequence, got 1"),
    (UnitriangularGroup(3), ((1, 1, 0), (0, 1, 0), (0, 0, True)),
     "matrix entry must be an integer, got True"),
    (UnitriangularGroup(3), (1, 0, 0.5),
     "matrix entry must be an integer, got 0.5"),
    (UnitriangularGroup(3), ((1, 1, 0), 0, (0, 0, 1)),
     "matrix row must be a sequence, got 0"),
    (PermutationGroup(3), (2, 1, 3.0), "image must be an integer, got 3.0"),
    (PermutationGroup(3), (2, "1", 3), "image must be an integer, got '1'"),
])
def test_each_family_names_its_refused_entry(fam, obj, message):
    # every family reads its entries through linalg.ints, and names the
    # first one that is not an int (FreeAbelian's is pinned above)
    with pytest.raises(StructuralError) as err:
        fam.canonicalize(obj)
    assert str(err.value) == message


def test_column_acts_read_a_one_shot_batch():
    # the vector and matrix act reads its batch once per column, so a
    # batch that is not a list is made one first: a one-shot iterator
    # gives the products of the list
    rng = random.Random(53)
    for rank in (2, 3, 6):
        fam = FreeAbelian(rank)
        batch = [tuple(rng.randint(-9, 9) for _ in range(rank))
                 for _ in range(30)]
        unit = tuple(int(i == 1) for i in range(rank))
        dense = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rank))
        for s in (unit, dense):
            expected = [oracle_product(fam, g, s) for g in batch]
            act = fam.right_multiplier(s)
            assert list(act(iter(batch))) == expected
            assert list(act(g for g in batch)) == expected
    m3 = MatrixGroup(3)
    batch = [m3.canonicalize(_random_unimodular(3, rng)) for _ in range(30)]
    for s in (((1, 0, 0), (0, 1, 1), (0, 0, 1)),
              ((0, 1, 0), (1, 0, 0), (0, 0, -1))):
        s = m3.canonicalize(s)
        expected = [oracle_product(m3, g, s) for g in batch]
        act = m3.right_multiplier(s)
        assert list(act(iter(batch))) == expected
        assert list(act(g for g in batch)) == expected


def test_column_acts_are_built_without_getters(monkeypatch):
    # an act stores the entries its generator changes and makes its
    # getters only when it runs, one per entry of the product
    made = []
    itemgetter = groups.itemgetter

    def counting(*items):
        made.append(items)
        return itemgetter(*items)

    stored = []
    column_act = groups._column_act

    def recording(width, changed):
        stored.append(changed)
        return column_act(width, changed)

    monkeypatch.setattr(groups, "itemgetter", counting)
    monkeypatch.setattr(groups, "_column_act", recording)
    rng = random.Random(59)
    fam = FreeAbelian(10_000)
    for s in (tuple(int(i == 0) for i in range(10_000)),
              tuple(rng.choice((0,) * 20 + (-3, 2)) for _ in range(10_000))):
        act = fam.right_multiplier(s)
        assert made == []
        # a free-abelian act stores only the generator's nonzero shifts
        assert sorted(stored.pop()) == [i for i, x in enumerate(s) if x]
        batch = [tuple(rng.randint(-9, 9) for _ in range(10_000))
                 for _ in range(3)]
        assert list(act(batch)) == [oracle_product(fam, g, s)
                                    for g in batch]
        assert len(made) == 10_000
        made.clear()
    # the Heisenberg generators as flat matrices: an act makes 12
    # getters, 4 per row
    h = heisenberg_group()
    m3 = MatrixGroup(3)
    flat = [m3.canonicalize(_random_unimodular(3, rng)) for _ in range(10)]
    for s in h.effective_generating_set():
        s_flat = m3.canonicalize(matrix_rows(h.family, s))
        act = m3.right_multiplier(s_flat)
        assert made == []
        assert sorted(stored.pop()) == list(range(9))
        assert list(act(flat)) == [oracle_product(m3, g, s_flat)
                                   for g in flat]
        assert len(made) == 12
        made.clear()


def test_families_refuse_sizes_below_their_least():
    for make, size in ((FreeAbelian, -1), (FreeGroup, 0), (MatrixGroup, 0),
                       (UnitriangularGroup, 0), (PermutationGroup, 0)):
        with pytest.raises(StructuralError):
            make(size)
        make(size + 1)


def test_unitriangular_canonicalize_takes_rows_and_coordinates():
    # an element is the tuple of entries above the diagonal, row by row;
    # rows and coordinates are told apart as rows and the flat form are,
    # and the family prints an element as MatrixGroup prints its matrix
    rng = random.Random(61)
    for dim in (1, 2, 3, 4):
        fam, flat = UnitriangularGroup(dim), MatrixGroup(dim)
        width = dim * (dim - 1) // 2
        assert fam.identity() == (0,) * width
        assert fam.describe() == flat.describe() == f"matrix dim {dim}"
        for _ in range(20):
            a = tuple(rng.randint(-9, 9) for _ in range(width))
            rows = matrix_rows(fam, a)
            assert tuple(rows[r][c] for r in range(dim)
                         for c in range(r + 1, dim)) == a
            assert all(rows[r][c] == (r == c) for r in range(dim)
                       for c in range(r + 1))
            assert fam.canonicalize(rows) == fam.canonicalize(list(a)) == a
            assert fam.element_repr(a) == \
                flat.element_repr(flat.canonicalize(rows))
            assert flat.coordinates(flat.canonicalize(rows)) == a


def test_unitriangular_canonicalize_refusals():
    fam = UnitriangularGroup(3)
    # a matrix of determinant +-1 that is not upper unitriangular
    for bad in (((1, 0, 0), (1, 1, 0), (0, 0, 1)),
                ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 1, 0), (1, 0, 0), (0, 0, 1))):
        with pytest.raises(StructuralError,
                           match="^matrix is not upper unitriangular$"):
            fam.canonicalize(bad)
        assert MatrixGroup(3).coordinates(MatrixGroup(3).canonicalize(bad)) \
            is None
    for bad in (((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0)),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1, 0))):
        with pytest.raises(StructuralError, match="not 3x3"):
            fam.canonicalize(bad)
    for bad in (((1, True, 0), (0, 1, 0), (0, 0, 1)), (1, 0.0, 2), (True,)):
        with pytest.raises(StructuralError, match="integer"):
            fam.canonicalize(bad)
    for bad in ((), (1, 2), (1, 2, 3, 4), (1,) * 9):
        with pytest.raises(StructuralError, match="^U_3 element has 3 "
                                                  f"coordinates, got {len(bad)}$"):
            fam.canonicalize(bad)


def _check_packed_acts(fam, gens, elements):
    """The packed acts of gens against the oracle product g*s on every
    pair, packed for radius 3, whose bound holds every coordinate here:
    each act maps the packed elements, as a list and through an
    iterator, to the packed products in order, and an empty batch to
    nothing."""
    acts, pack = fam.packed(gens, 3)
    packed = list(map(pack, elements))
    half = len(packed) // 2
    for s, act in zip(gens, acts):
        expected = [pack(oracle_product(fam, g, s)) for g in elements]
        assert None not in packed + expected, s
        assert list(act(packed)) == expected, s
        assert list(act(itertools.chain(packed[:half],
                                        packed[half:]))) == expected, s
        assert list(act([])) == [], s


def test_unitriangular_law_and_inverse_match_the_oracle():
    # the packed acts and the back-substitution inverse against the
    # oracle's product of rows, on seeded markings of dims 2-4 taken both
    # ways, and on elements with dense coordinates
    rng = random.Random(67)
    for symmetrize, size in ((True, 2), (False, 3)) * 6:
        fam, gens = random_unitriangular_set(rng, size)
        m = MarkedGroup(fam, gens, symmetrize)
        width = len(fam.identity())
        elements = [fam.identity()] + [
            tuple(rng.randint(-50, 50) for _ in range(width))
            for _ in range(20)]
        dense = elements[1:6]
        _check_packed_acts(fam, m.effective_generating_set() + dense,
                           elements)
        for a in elements + list(gens):
            inv = fam.inverse(a)
            assert oracle_product(fam, a, inv) == fam.identity()
            assert oracle_product(fam, inv, a) == fam.identity()
            assert matrix_rows(fam, inv) == mat_inverse_exact(
                matrix_rows(fam, a))
    # dim 1: the trivial group, whose one element acts on no columns
    _check_packed_acts(UnitriangularGroup(1), [()], [()] * 3)
    assert UnitriangularGroup(1).inverse(()) == ()


def test_unitriangular_group_has_no_tuple_act():
    # U_n(Z) has one law, its packed acts: it does not inherit the flat
    # matrix act of MatrixGroup, whose tuples are not its elements
    h = heisenberg_group()
    with pytest.raises(TypeError, match="packed"):
        h.family.right_multiplier(h.generators[0])


def malcev_bound(n, top, k):
    """B(k), the bound on every coordinate of a product of k elements of
    U_n(Z) whose entries above the diagonal are at most top in size: a
    chain r < j_1 < ... < c through m of the k factors has C(n-2, m-1)
    choices of inner indices at distance n - 1, and C(k, m) of factors."""
    return sum(comb(k, m) * comb(n - 2, m - 1) * top ** m
               for m in range(1, n))


def malcev_unpack(n, bound, u):
    """The coordinates, row by row, of the packed int u: coordinate
    (r, c) is digit c(c-1)/2 + r of u in base 2*bound + 1, less bound."""
    base, digits = 2 * bound + 1, []
    for _ in range(n * (n - 1) // 2):
        u, d = divmod(u, base)
        digits.append(d - bound)
    assert u == 0
    return tuple(digits[c * (c - 1) // 2 + r]
                 for r in range(n) for c in range(r + 1, n))


def seeded_unitriangular_words(seed, count):
    """`count` seeded markings of dims 2-6, taken both ways, each with
    its effective generating set and, for k in 0..5, the oracle's
    products of 12 seeded words of length k."""
    rng = random.Random(seed)
    for i in range(count):
        symmetrize, size = ((True, 2), (False, 3))[i % 2]
        fam, gens = random_unitriangular_set(rng, size, dims=range(2, 7))
        m = MarkedGroup(fam, gens, symmetrize)
        pool = m.effective_generating_set()
        words = {}
        for k in range(6):
            words[k] = []
            for _ in range(12):
                g = fam.identity()
                for _ in range(k):
                    g = oracle_product(fam, g, rng.choice(pool))
                words[k].append(g)
        yield fam, pool, words


def test_malcev_bound_holds_and_packs_every_coordinate_within_it():
    # B(k) bounds every coordinate of seeded words of length k, and the
    # packing at radius k takes a coordinate of size B(k) and refuses
    # B(k) + 1, in every position
    for fam, pool, words in seeded_unitriangular_words(83, 24):
        n, top = fam.dim, max(abs(x) for s in pool for x in s)
        for k, products in words.items():
            bound = malcev_bound(n, top, k)
            _, pack = fam.packed(pool, k)
            for g in products:
                assert max(map(abs, g)) <= bound
                assert malcev_unpack(n, bound, pack(g)) == g
            zero = [0] * len(fam.identity())
            for i in range(len(zero)):
                for x, packs in ((bound, True), (-bound, True),
                                 (bound + 1, False), (-bound - 1, False)):
                    a = tuple(zero[:i] + [x] + zero[i + 1:])
                    assert (pack(a) is not None) == packs


def test_malcev_coordinates_at_the_bound_pack_and_unpack_to_themselves():
    rng = random.Random(89)
    for fam, pool, _ in seeded_unitriangular_words(97, 10):
        n, top = fam.dim, max(abs(x) for s in pool for x in s)
        for k in (1, 4, 20):
            bound = malcev_bound(n, top, k)
            _, pack = fam.packed(pool, k)
            width = len(fam.identity())
            for a in [(bound,) * width, (-bound,) * width] + [
                    tuple(rng.choice((-bound, 0, bound)) for _ in range(width))
                    for _ in range(10)]:
                assert malcev_unpack(n, bound, pack(a)) == a


def test_packed_acts_are_the_oracle_product():
    # each act maps packed elements of the (k-1)-ball to the packed
    # oracle products, from a list or from a one-shot batch
    for fam, pool, words in seeded_unitriangular_words(101, 24):
        k = 5
        acts, pack = fam.packed(pool, k)
        batch = [g for j in range(k) for g in words[j]]
        packed = [pack(g) for g in batch]
        for s, act in zip(pool, acts):
            expected = [pack(oracle_product(fam, g, s)) for g in batch]
            assert None not in expected
            assert list(act(packed)) == expected
            assert list(act(u for u in packed)) == expected


def test_permutation_group_law():
    fam = PermutationGroup(5)
    rng = random.Random(31)
    for _ in range(200):
        a = list(range(1, 6))
        b = list(range(1, 6))
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = tuple(a), tuple(b)
        ab = mul(fam, a, b)
        # a*b applies a first, then b
        for point in range(1, 6):
            assert ab[point - 1] == b[a[point - 1] - 1]
        assert mul(fam, a, fam.inverse(a)) == fam.identity()


def test_permutation_validation():
    fam = PermutationGroup(3)
    with pytest.raises(StructuralError):
        fam.canonicalize((1, 1, 2))
    with pytest.raises(StructuralError):
        fam.canonicalize((1, 2))


def _reduced_letters(rng, rank, n):
    out = []
    while len(out) < n:
        l = rng.choice((1, -1)) * rng.randint(1, rank)
        if not out or l != -out[-1]:
            out.append(l)
    return out


def _check_right_multiplier(fam, gens, elements):
    """right_multiplier(s) against the oracle product g*s on every pair:
    each act maps the whole list of elements, and the same elements
    through an iterator, to their products in order, and an empty batch
    to nothing; returns how many products came out shorter than g (free
    words that cancel)."""
    shorter = 0
    half = len(elements) // 2
    for s in gens:
        act = fam.right_multiplier(s)
        expected = [oracle_product(fam, g, s) for g in elements]
        assert list(act(elements)) == expected, s
        assert list(act(itertools.chain(elements[:half],
                                        elements[half:]))) == expected, s
        assert list(act([])) == [], s
        if isinstance(fam, FreeGroup):
            shorter += sum(len(free_letters(fam, gs))
                           < len(free_letters(fam, g))
                           for g, gs in zip(elements, expected))
    return shorter


def test_right_multiplier_matches_oracle():
    # the action precomputed for one s agrees with the product from the
    # family's definition, for every shape of s that right_multiplier
    # treats on its own
    rng = random.Random(4141)

    for rank in (1, 3, 6):
        fam = FreeAbelian(rank)

        def vec(nonzero):
            v = [0] * rank
            for i in rng.sample(range(rank), nonzero):
                v[i] = rng.choice((-3, -1, 1, 3))
            return tuple(v)
        gens = [vec(1) for _ in range(6)]
        gens += [vec(rng.randint(2, rank)) for _ in range(6) if rank > 1]
        elements = [fam.identity()] + [
            tuple(rng.randint(-50, 50) for _ in range(rank))
            for _ in range(40)]
        _check_right_multiplier(fam, gens, elements)
    # rank 0: the empty vector has no columns, and a zip of no columns
    # would map it to nothing
    _check_right_multiplier(FreeAbelian(0), [()], [()] * 3)

    for rank in (2, 200):  # bases 5 and 401
        fam = FreeGroup(rank)
        word = fam.canonicalize([1, -rank])  # the empty word acts trivially
        assert list(fam.right_multiplier(fam.identity())([word])) == [word]
        for length in (1, 2, 3, 5):
            gens = [fam.canonicalize(_reduced_letters(rng, rank, length))
                    for _ in range(6)]
            elements = [fam.identity()]
            elements += [fam.canonicalize(_reduced_letters(rng, rank, n))
                         for n in range(1, 9)]
            # words that end in s^-1, so g*s cancels at the junction
            elements += [oracle_product(fam, w, fam.inverse(s))
                         for s in gens for w in elements[:5]]
            assert _check_right_multiplier(fam, gens, elements) > 0

    def flip(a):  # negate the first row: determinant -1
        rows = matrix_rows(fam, a)
        return fam.canonicalize((tuple(-x for x in rows[0]),) + rows[1:])

    for dim in (2, 3, 4):
        fam = MatrixGroup(dim)
        gens = [flip(fam.identity())]
        for i, j in itertools.permutations(range(dim), 2):
            for d in (1, -1, 3, -3):  # unipotent I + d*E_ij
                gens.append(fam.canonicalize(
                    tuple(int(r == c) + d * ((r, c) == (i, j))
                          for c in range(dim))
                    for r in range(dim)))
        dense = [fam.canonicalize(_random_unimodular(dim, rng))
                 for _ in range(4)]
        gens += dense + [flip(a) for a in dense]
        elements = [fam.identity()]
        for _ in range(10):
            a = fam.canonicalize(_random_unimodular(dim, rng))
            elements += [a, flip(a)]
        _check_right_multiplier(fam, gens, elements)

    for degree in range(1, 8):
        fam = PermutationGroup(degree)

        def perm():
            img = list(range(1, degree + 1))
            rng.shuffle(img)
            return tuple(img)
        gens = [perm() for _ in range(5)]
        elements = [fam.identity()] + [perm() for _ in range(20)]
        _check_right_multiplier(fam, gens, elements)


def test_lazy_acts_read_only_what_is_drawn():
    # the free-group and permutation acts are lazy: on an endless batch
    # they return at once and yield products as drawn
    f2, s4 = FreeGroup(2), PermutationGroup(4)
    cases = [
        (f2, f2.canonicalize([1, 2, -1]), (1,)),
        (f2, f2.canonicalize([2, 1]), (-1,)),
        (f2, f2.canonicalize([2]), (1, 2, -1, -2)),
        (f2, f2.canonicalize([1]), ()),  # the empty word acts trivially
        (s4, (2, 3, 4, 1), (2, 1, 4, 3)),
    ]
    for fam, g, s in cases:
        s = fam.canonicalize(s)
        out = fam.right_multiplier(s)(itertools.repeat(g))
        assert list(itertools.islice(out, 3)) == \
            [oracle_product(fam, g, s)] * 3, (g, s)


def test_records_compare_by_type_and_fields():
    # a family is not a bare tuple of its size: equal sizes of two
    # families are two different groups
    assert FreeAbelian(2) != FreeGroup(2)
    assert MatrixGroup(2) != PermutationGroup(2)
    assert FreeAbelian(2) != (2,)
    # the same matrices in Mal'cev coordinates are another family's
    assert UnitriangularGroup(3) != MatrixGroup(3)
    assert heisenberg_group() != matrix_twin(heisenberg_group())
    twins = [
        (FreeAbelian(2), FreeAbelian(rank=2)),
        (FreeGroup(3), FreeGroup(3)),
        (MatrixGroup(3), MatrixGroup(dim=3)),
        (UnitriangularGroup(3), UnitriangularGroup(dim=3)),
        (PermutationGroup(4), PermutationGroup(4)),
        (free_group_standard(2), MarkedGroup(FreeGroup(2), ((1,), (2,)))),
        (heisenberg_group(), MarkedGroup(family=UnitriangularGroup(3),
                                         generators=((1, 0, 0), (0, 0, 1)))),
    ]
    for a, b in twins:
        assert a == b and hash(a) == hash(b), a
        assert len({a, b}) == 1
    assert free_group_standard(2) != MarkedGroup(
        FreeGroup(2), ((1,), (2,)), symmetrize=False)
    assert free_group_standard(2) != free_group_standard(3)


def test_records_refuse_assignment():
    m = free_group_standard(2)
    for record, field in ((FreeAbelian(2), "rank"), (FreeGroup(2), "rank"),
                          (MatrixGroup(2), "dim"),
                          (UnitriangularGroup(2), "dim"),
                          (PermutationGroup(2), "degree"),
                          (m, "family"), (m, "generators"),
                          (m, "symmetrize")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert m == free_group_standard(2)


def test_no_record_carries_a_dict():
    # Record reads its fields off the class that declares them, so a
    # subclass that adds none (UnitriangularGroup) declares no __dict__
    for info in pkgutil.iter_modules(growthlab.__path__):
        importlib.import_module(f"growthlab.{info.name}")
    todo, records = [Record], []
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("growthlab."):
            records.append(cls)
    assert UnitriangularGroup in records
    assert [c.__name__ for c in records if c.__dictoffset__] == []


def test_marked_group_needs_generators():
    with pytest.raises(ConfigError):
        MarkedGroup(FreeAbelian(2), ())


def test_marked_group_rejects_identity_generator():
    with pytest.raises(StructuralError):
        MarkedGroup(FreeAbelian(2), ((0, 0),))
    with pytest.raises(StructuralError):
        MarkedGroup(FreeGroup(1), ((1, -1),))


def test_effective_generating_set_symmetrizes():
    m = free_abelian_standard(2)
    eff = m.effective_generating_set()
    assert len(eff) == 4
    assert (-1, 0) in eff and (0, -1) in eff

    # listing a generator and its inverse twice changes nothing
    m2 = MarkedGroup(FreeAbelian(1), ((1,), (-1,)))
    assert len(m2.effective_generating_set()) == 2

    asym = MarkedGroup(FreeAbelian(1), ((1,),), symmetrize=False)
    assert asym.effective_generating_set() == [(1,)]


def test_stock_constructions():
    assert free_abelian_standard(3).generators == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    f2 = free_group_standard(2)
    assert [f2.family.element_repr(g) for g in f2.generators] == ["x1", "x2"]

    h = heisenberg_group()
    assert det_exact(matrix_rows(h.family, h.generators[0])) == 1
    assert len(h.effective_generating_set()) == 4

    s4 = symmetric_group_adjacent(4)
    assert len(s4.generators) == 3
    # adjacent transpositions are involutions, so symmetrizing is a no-op
    assert len(s4.effective_generating_set()) == 3


def test_describe_mentions_family_and_set():
    text = free_abelian_standard(2).describe()
    assert "free-abelian rank 2" in text
    assert "(1, 0)" in text
    assert "symmetrized" in text

    # a matrix marking prints its generators as rows
    m = MarkedGroup(MatrixGroup(3), (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                                     ((0, 1, 0), (1, 0, 0), (0, 0, -1))),
                    symmetrize=False)
    assert m.describe() == ("matrix dim 3; S = {[1 1 0; 0 1 0; 0 0 1], "
                            "[0 1 0; 1 0 0; 0 0 -1]} (as-given)")


def test_distinct_elements_are_distinct_keys():
    fam = FreeGroup(2)
    words = [(), (1,), (-1,), (1, 2), (2, 1), (1, -2), (2,), (-2,)]
    elements = {fam.canonicalize(w) for w in words}
    assert len(elements) == len(words)

    perm = PermutationGroup(4)
    elements = {perm.canonicalize(p)
                for p in itertools.permutations(range(1, 5))}
    assert len(elements) == 24


def test_canonicalize_accepts_its_own_output():
    samples = [
        (FreeAbelian(3), (1, -2, 0)),
        (FreeGroup(2), (1, 2, -1, -2, 2)),
        (FreeGroup(200), (200, -3, 3, -199)),
        (MatrixGroup(2), ((1, 1), (0, 1))),
        (UnitriangularGroup(3), ((1, 2, -3), (0, 1, 4), (0, 0, 1))),
        (PermutationGroup(4), (2, 3, 4, 1)),
    ]
    for fam, obj in samples:
        c = fam.canonicalize(obj)
        assert fam.canonicalize(c) == c
    with pytest.raises(StructuralError):
        FreeGroup(200).canonicalize(401 * 401)  # two zero digits

    # re-marking an existing marking keeps its generators
    for m in (free_group_standard(2), free_group_standard(200),
              MarkedGroup(FreeGroup(2), ((1, 2), (-2,)))):
        assert MarkedGroup(m.family, m.generators) == m
        asym = MarkedGroup(m.family, m.generators, symmetrize=False)
        assert asym.generators == m.generators
