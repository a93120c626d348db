import math
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from growthlab import ehrhart, linalg
from growthlab.ehrhart import (LatticePolytope, _halfspaces, cross_polytope,
                               cross_polytope_series, ehrhart_sequence,
                               legendre, root_polytope, root_polytope_series)
from growthlab.errors import ArgumentError, CheckFailure, StructuralError
from growthlab.series import (RationalFunction, closed_form_free_abelian,
                              poly_eval)
from lattice_oracle import hull_contains


def l1_ball(n, k):
    # lattice points with |x|_1 <= k, which is exactly the k-th dilate
    # of the cross-polytope
    return sum(comb(n, i) * comb(k, i) * 2 ** i for i in range(min(n, k) + 1))


def test_segment():
    P = LatticePolytope.make(1, [(0,), (1,)])
    assert ehrhart_sequence(P, 5) == [1, 2, 3, 4, 5, 6]


def test_point_polytope():
    P = LatticePolytope.make(2, [(3, 4)])
    assert ehrhart_sequence(P, 4) == [1, 1, 1, 1, 1]
    assert P.affine_dim() == 0


def test_unit_square():
    P = LatticePolytope.make(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert ehrhart_sequence(P, 6) == [(k + 1) ** 2 for k in range(7)]
    assert P.affine_dim() == 2
    assert P.rank == 2


def test_standard_simplex():
    P = LatticePolytope.make(2, [(0, 0), (1, 0), (0, 1)])
    assert ehrhart_sequence(P, 8) == [comb(k + 2, 2) for k in range(9)]


def test_cross_polytope_counts():
    for n in (1, 2, 3):
        P = cross_polytope(n)
        kmax = 6 if n < 3 else 4
        assert ehrhart_sequence(P, kmax) == [l1_ball(n, k)
                                             for k in range(kmax + 1)]


def test_cross_polytope_series_matches_counts():
    for n in (1, 2, 3):
        f = cross_polytope_series(n)
        assert f.expand(8) == [l1_ball(n, k) for k in range(9)]


def test_root_polytope_hexagon():
    # in root coordinates the n=2 polytope is the hexagon
    # |a| <= 1, |b| <= 1, |a - b| <= 1
    P = root_polytope(2)
    assert P.rank == 2
    assert P.ambient_dim == 3
    assert P.affine_dim() == 2
    assert len(P.vertices) == 6

    def hexagon(k):
        return sum(1 for a in range(-k, k + 1) for b in range(-k, k + 1)
                   if abs(a - b) <= k)

    assert ehrhart_sequence(P, 4) == [hexagon(k) for k in range(5)]
    assert ehrhart_sequence(P, 4) == [1, 7, 19, 37, 61]


def test_root_polytope_series():
    f2 = root_polytope_series(2)
    assert list(f2.numerator) == [1, 4, 1]
    assert list(f2.denominator) == [1, -3, 3, -1]
    assert f2.expand(4) == [1, 7, 19, 37, 61]
    f3 = root_polytope_series(3)
    assert list(f3.numerator) == [1, 9, 9, 1]
    assert f3.expand(3) == ehrhart_sequence(root_polytope(3), 3)


def test_root_series_denominator_degree():
    for n in range(1, 6):
        f = root_polytope_series(n)
        assert len(f.denominator) == n + 2  # (1 - z)^(n+1)
        assert sum(f.numerator) == math.factorial(2 * n) // (
            math.factorial(n) ** 2)  # volume numerator C(2n, n)


def test_closed_forms_are_normalized():
    # the three closed forms are built directly, not through make, so
    # each must already be make's normal form of its own pair
    for n in range(1, 13):
        for f in (closed_form_free_abelian(n), cross_polytope_series(n),
                  root_polytope_series(n)):
            assert f == RationalFunction.make(f.numerator, f.denominator)


def test_root_series_check_catches_a_wrong_legendre(monkeypatch):
    def perturbed(n):
        c = list(legendre(n))
        c[0] += Fraction(1, 7)
        return tuple(c)

    monkeypatch.setattr(ehrhart, "legendre", perturbed)
    with pytest.raises(CheckFailure, match="disagree at n=3"):
        root_polytope_series(3)


def test_legendre_polynomials():
    assert legendre(0) == (Fraction(1),)
    assert legendre(1) == (Fraction(0), Fraction(1))
    assert legendre(2) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))
    assert legendre(3) == (Fraction(0), Fraction(-3, 2),
                           Fraction(0), Fraction(5, 2))
    assert poly_eval(legendre(4), Fraction(0)) == Fraction(3, 8)
    for n in range(9):
        assert poly_eval(legendre(n), Fraction(1)) == 1
        assert poly_eval(legendre(n), Fraction(-1)) == (-1) ** n
    with pytest.raises(ArgumentError):
        legendre(-1)


def test_pick_theorem_random_triangles():
    # Ehrhart of a lattice triangle is A k^2 + (B/2) k + 1 with A the
    # area and B the number of boundary lattice points, so the counted
    # sequence must match the Pick data edge for edge
    rng = random.Random(77)
    done = 0
    while done < 12:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
        (x0, y0), (x1, y1), (x2, y2) = pts
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if det == 0:
            continue
        done += 1
        area = Fraction(abs(det), 2)
        boundary = sum(math.gcd(abs(ax - bx), abs(ay - by))
                       for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))
        counts = ehrhart_sequence(LatticePolytope.make(2, pts), 3)
        for k in range(4):
            expected = area * k * k + Fraction(boundary, 2) * k + 1
            assert counts[k] == expected


def test_stock_polytopes_match_solved_coordinates():
    # the stock constructors write lattice coordinates down; make solves
    # for them from the same vertices and basis
    for n in range(1, 5):
        for P in (cross_polytope(n), root_polytope(n)):
            assert P == LatticePolytope.make(P.ambient_dim, P.vertices,
                                             P.basis)
    assert cross_polytope(2).vertices == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert root_polytope(1).vertex_coords == ((1,), (-1,))


def test_duplicate_vertices_collapse():
    P = LatticePolytope.make(1, [(0,), (1,), (0,)])
    assert len(P.vertices) == 2


def test_sublattice_coordinates():
    # the even sublattice of Z: vertices must land on it
    P = LatticePolytope.make(1, [(-2,), (4,)], basis=[(2,)])
    assert P.vertex_coords == ((-1,), (2,))
    # dilates count points of the sublattice, i.e. in lattice coords
    assert ehrhart_sequence(P, 3) == [1, 4, 7, 10]


def test_validation_errors():
    with pytest.raises(ArgumentError):
        LatticePolytope.make(0, [()])
    with pytest.raises(ArgumentError):
        LatticePolytope.make(2, [])
    with pytest.raises(StructuralError):
        LatticePolytope.make(2, [(1, 0, 0)])  # wrong vertex length
    with pytest.raises(StructuralError):
        LatticePolytope.make(2, [(1, 0)], basis=[(1, 0, 0)])
    with pytest.raises(StructuralError):
        LatticePolytope.make(2, [(1, 0)], basis=[(1, 0), (2, 0)])
    with pytest.raises(StructuralError):
        # outside the span of the basis
        LatticePolytope.make(2, [(1, 1)], basis=[(1, 0)])
    with pytest.raises(StructuralError):
        # in the span but not on the lattice
        LatticePolytope.make(1, [(1,)], basis=[(2,)])


def test_vertex_coordinates_on_random_lattices():
    # with the first row of B scaled by d, v = B^T c lies in the span and
    # has coordinates (c_0 / d, c_1, ...), a lattice point exactly when
    # d divides c_0, since the rows of B are independent; a vector that
    # raises the rank of B is outside the span
    rng = random.Random(41)
    kinds = {"ok": 0, "not a lattice point": 0, "outside": 0}
    for _ in range(300):
        ambient = rng.randint(1, 4)
        rank = rng.randint(1, ambient)
        basis = [tuple(rng.randint(-2, 2) for _ in range(ambient))
                 for _ in range(rank)]
        if linalg.rank(basis) < rank:
            continue
        c = [rng.randint(-4, 4) for _ in range(rank)]
        v = tuple(sum(ci * row[j] for ci, row in zip(c, basis))
                  for j in range(ambient))
        d = rng.randint(1, 3)
        scaled = [tuple(d * x for x in basis[0])] + basis[1:]
        if c[0] % d == 0:
            P = LatticePolytope.make(ambient, [v], scaled)
            assert P.vertex_coords == ((c[0] // d, *c[1:]),)
            kinds["ok"] += 1
        else:
            with pytest.raises(StructuralError,
                               match="is not a lattice point"):
                LatticePolytope.make(ambient, [v], scaled)
            kinds["not a lattice point"] += 1
        v = tuple(rng.randint(-3, 3) for _ in range(ambient))
        if linalg.rank(basis + [v]) > rank:
            with pytest.raises(StructuralError,
                               match="is outside the lattice span"):
                LatticePolytope.make(ambient, [v], basis)
            kinds["outside"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_count_preconditions():
    P = cross_polytope(1)
    assert ehrhart_sequence(P, 0) == [1]
    with pytest.raises(ArgumentError):
        ehrhart_sequence(P, -1)
    with pytest.raises(ArgumentError):
        cross_polytope(0)
    with pytest.raises(ArgumentError):
        root_polytope(0)
    with pytest.raises(ArgumentError):
        cross_polytope_series(0)
    with pytest.raises(ArgumentError):
        root_polytope_series(0)


def simplex_box_scan(P, k):
    """The facet-free oracle: a phase-1 simplex for every point of the
    bounding box of kP, in lattice coordinates."""
    if k == 0:
        return 1
    scaled = [tuple(k * c for c in v) for v in P.vertex_coords]
    box = [range(min(col), max(col) + 1) for col in zip(*scaled)]
    return sum(1 for x in product(*box) if hull_contains(scaled, x))


def random_polytope(rng, ambient, rank, flat_dim):
    """At most six vertices in the span of a random rank-`rank` lattice
    in Z^ambient; with flat_dim < rank they lie on a flat of that
    dimension, so points, segments and polygons occur."""
    while True:
        if rank == ambient and rng.random() < 0.5:
            basis = [tuple(int(i == j) for j in range(ambient))
                     for i in range(ambient)]
        else:
            basis = [tuple(rng.randint(-2, 2) for _ in range(ambient))
                     for _ in range(rank)]
        dirs = [[rng.randint(-1, 1) for _ in range(rank)]
                for _ in range(flat_dim)]
        base = [rng.randint(-1, 1) for _ in range(rank)]
        coords = []
        for _ in range(rng.randint(flat_dim + 1, 6)):
            t = [rng.randint(-1, 1) for _ in dirs]
            coords.append([b + sum(ti * d[i] for ti, d in zip(t, dirs))
                           for i, b in enumerate(base)])
        verts = [tuple(sum(c[i] * basis[i][j] for i in range(rank))
                       for j in range(ambient)) for c in coords]
        try:
            P = LatticePolytope.make(ambient, verts, basis)
        except StructuralError:  # dependent basis rows
            continue
        # each vertex in lattice coordinates: B^T c = v
        for v, c in zip(P.vertices, P.vertex_coords):
            assert tuple(sum(ci * row[j] for ci, row in zip(c, basis))
                         for j in range(ambient)) == v
        if P.affine_dim() == flat_dim:
            return P


def assert_halfspaces(P):
    """Every halfspace is primitive, tight on some vertex and listed
    once; rank - e of them come in opposite pairs tight on every vertex,
    the equations of the affine hull; every other one is strict on some
    vertex and tight on the vertices of a face of dimension e - 1."""
    halfspaces = _halfspaces(P)
    e = P.affine_dim()
    assert halfspaces == sorted(set(halfspaces))
    pairs = [(a, b) for a, b in halfspaces
             if (tuple(-x for x in a), -b) in halfspaces]
    assert len(pairs) == 2 * (P.rank - e)
    for a, b in halfspaces:
        assert math.gcd(*a) == 1
        heights = [sum(x * y for x, y in zip(a, v)) for v in P.vertex_coords]
        assert max(heights) == b
        if (a, b) in pairs:
            assert min(heights) == b
            continue
        assert min(heights) < b
        face = [v for v, h in zip(P.vertex_coords, heights) if h == b]
        diffs = [[x - y for x, y in zip(v, face[0])] for v in face[1:]]
        assert (linalg.rank(diffs) if diffs else 0) == e - 1
    return len(pairs) // 2, len(halfspaces) - len(pairs)


def test_facet_counter_matches_simplex_oracle():
    rng = random.Random(2015)
    shapes = [(1, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 1, 1),
              (3, 3, 0), (3, 3, 1), (3, 3, 2), (3, 3, 3), (3, 2, 2),
              (3, 2, 1), (3, 1, 1)]
    for ambient, rank, flat_dim in shapes:
        for _ in range(4):
            P = random_polytope(rng, ambient, rank, flat_dim)
            assert_halfspaces(P)
            kmax = 2 if flat_dim >= 2 else 3
            assert ehrhart_sequence(P, kmax) == [
                simplex_box_scan(P, k) for k in range(kmax + 1)], P


def test_facet_counts():
    square = LatticePolytope.make(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    triangle = LatticePolytope.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # a tetrahedron with the midpoint (1, 1, 1) of an edge listed as a
    # vertex: a collinear vertex triple spans no facet
    tetra = LatticePolytope.make(3, [(2, 1, 0), (1, 1, 1), (0, 1, 2),
                                     (0, 2, 2), (2, 2, 2)])
    for P, pairs, facets in ((cross_polytope(3), 0, 8),
                             (root_polytope(3), 0, 14),  # cuboctahedron
                             (square, 0, 4),
                             (tetra, 0, 4),
                             (triangle, 1, 3),
                             (LatticePolytope.make(3, [(1, 2, 3)]), 3, 0)):
        assert assert_halfspaces(P) == (pairs, facets)


def test_found_segment_counts_its_lattice_points():
    # gcd(10, 20, 30) = 10, so k times the segment holds 10k + 1 points,
    # while its bounding box at k = 10 alone holds 6.1 M
    P = LatticePolytope.make(3, [(0, 0, 0), (10, 20, 30)])
    assert assert_halfspaces(P) == (2, 2)
    assert ehrhart_sequence(P, 10) == [1 + 10 * k for k in range(11)]


@pytest.mark.parametrize("P, pairs, facets, expected", [
    # a segment parallel to the last axis: one line per dilate
    (LatticePolytope.make(3, [(1, -2, 0), (1, -2, 4)]), 2, 2,
     [1 + 4 * k for k in range(4)]),
    # a pentagon in the plane x3 = 2: the hull pair fixes t itself
    (LatticePolytope.make(3, [(0, 0, 2), (3, 0, 2), (0, 2, 2), (2, 2, 2),
                              (1, -1, 2)]), 1, 5, None),
    # a quadrilateral in the plane x1 + x2 = 2, whose hull pair leaves t
    # free and cuts the prefix box instead
    (LatticePolytope.make(3, [(0, 2, 0), (2, 0, 0), (1, 1, 3), (0, 2, 2)]),
     1, 4, None),
    (LatticePolytope.make(3, [(1, -2, 3)]), 3, 0, [1, 1, 1, 1]),
    # a rank-1 lattice in Z^3, where kP is a single line
    (LatticePolytope.make(3, [(-2, 2, 4), (3, -3, -6)],
                          basis=[(1, -1, -2)]), 0, 2,
     [1 + 5 * k for k in range(4)]),
    # a rank-0 lattice holds one point
    (LatticePolytope.make(2, [(0, 0)], basis=[]), 0, 0, [1, 1, 1, 1]),
], ids=["last-axis-segment", "plane-x3", "plane-x1-x2", "point", "rank-1",
        "rank-0"])
def test_degenerate_polytopes_match_simplex_oracle(P, pairs, facets,
                                                   expected):
    assert assert_halfspaces(P) == (pairs, facets)
    kmax = 3 if expected else 2
    counts = ehrhart_sequence(P, kmax)
    assert counts == [simplex_box_scan(P, k) for k in range(kmax + 1)]
    if expected:
        assert counts == expected
