"""Test oracles for the group law, and random markings to feed them.

The products are taken from each family's definition and share no code
with ``right_multiplier``, so the tests use them as the oracle for the
group law and for everything built on it.  Each ``random_*_set(rng,
size)`` returns a family and `size` generators for a MarkedGroup;
``stock_markings()`` gives the stock marked groups both ways.
"""

from itertools import product

from growthlab.groups import (FreeAbelian, FreeGroup, MarkedGroup,
                              MatrixGroup, PermutationGroup,
                              free_abelian_standard, free_group_standard,
                              heisenberg_group, symmetric_group_adjacent)


def free_letters(fam, w):
    """The signed letters of a free-group element, first letter first,
    read back from its printed form ``x1*x2^-1``."""
    if w == fam.identity():
        return ()
    return tuple(-int(p[1:-3]) if p.endswith("^-1") else int(p[1:])
                 for p in fam.element_repr(w).split("*"))


def matrix_rows(fam, a):
    """The rows of a matrix-group element, read back from its printed
    form ``[1 1 0; 0 1 0; 0 0 1]``."""
    return tuple(tuple(map(int, row.split()))
                 for row in fam.element_repr(a)[1:-1].split(";"))


def free_reduce(letters):
    """The free reduction of a letter sequence: a letter next to its
    inverse cancels, on a stack."""
    stack = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def oracle_product(fam, a, b):
    """a*b: coordinatewise sums, the free reduction of the concatenated
    letters, the matrix product of the rows, or the permutation that
    applies a first and then b.  A free word enters the family's form
    only as an already reduced letter tuple, a matrix only as rows."""
    if isinstance(fam, FreeAbelian):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(fam, FreeGroup):
        return fam.canonicalize(
            free_reduce(free_letters(fam, a) + free_letters(fam, b)))
    if isinstance(fam, MatrixGroup):
        a, b = matrix_rows(fam, a), matrix_rows(fam, b)
        n = fam.dim
        return fam.canonicalize(
            [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)])
    return tuple(b[i - 1] for i in a)


def exact_products(m, length):
    """The set of products of exactly `length` elements of the effective
    generating set of the marked group m, by plain enumeration."""
    fam = m.family
    out = set()
    for combo in product(m.effective_generating_set(), repeat=length):
        g = fam.identity()
        for s in combo:
            g = oracle_product(fam, g, s)
        out.add(g)
    return out


def stock_markings():
    """F_2, Z^3, the Heisenberg group and S_4 with their stock
    generators, each symmetrized and as-given."""
    for m in (free_group_standard(2), free_abelian_standard(3),
              heisenberg_group(), symmetric_group_adjacent(4)):
        yield m
        yield MarkedGroup(m.family, m.generators, symmetrize=False)


def random_z2_set(rng, size):
    """`size` distinct nonzero vectors of Z^2 with entries in -2..2."""
    gens = []
    while len(gens) < size:
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        if v != (0, 0) and v not in gens:
            gens.append(v)
    return FreeAbelian(2), tuple(gens)


def random_f2_set(rng, size):
    """`size` distinct nontrivial words of 1-3 letters in F_2."""
    fam = FreeGroup(2)
    gens = []
    while len(gens) < size:
        w = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 3))]
        if fam.canonicalize(w) != fam.identity() and w not in gens:
            gens.append(w)
    return fam, tuple(gens)


def random_matrix_set(rng, size):
    """`size` distinct products of one or two shears I + d*E_ij in
    dimension 2 or 3; the first has a row negated (determinant -1) half
    the time."""
    n = rng.choice((2, 3))
    fam = MatrixGroup(n)
    gens = []
    while len(gens) < size:
        g = fam.identity()
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            shear = [[int(r == c) for c in range(n)] for r in range(n)]
            shear[i][j] = rng.choice((-2, -1, 1, 2))
            g = oracle_product(fam, g, fam.canonicalize(shear))
        if not gens and rng.random() < 0.5:
            rows = matrix_rows(fam, g)
            g = fam.canonicalize((tuple(-x for x in rows[0]),) + rows[1:])
        if g != fam.identity() and g not in gens:
            gens.append(g)
    return fam, tuple(gens)


def random_perm_set(rng, size):
    """`size` distinct non-identity permutations of degree 4 or 5."""
    fam = PermutationGroup(rng.choice((4, 5)))
    gens = []
    while len(gens) < size:
        img = list(fam.identity())
        rng.shuffle(img)
        g = tuple(img)
        if g != fam.identity() and g not in gens:
            gens.append(g)
    return fam, tuple(gens)
