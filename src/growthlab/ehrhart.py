"""Exact lattice-point counting in integer dilates of lattice polytopes.

A polytope is given by its vertices (integer vectors in an ambient
space) together with a basis of the lattice it lives in; for full
Z^n the basis is the identity and can be omitted.  Counting works in
lattice coordinates.  P is computed once, exactly, as one list of
halfspaces a.x <= b: both sides of each equation of its affine hull
(an integer null-space basis of the vertex differences, kept on the
polytope) and one primitive outward normal per facet, found from the
e-subsets of vertices (e the dimension of P) whose hyperplane inside
the affine hull has every vertex on one side (Beck & Robins, *Computing
the Continuous Discretely*, 2nd ed., 2015, ch. 2-3).  A dilate kP is
then counted line by line: over the bounding box of kP in all lattice
coordinates but the last, the last one runs over an interval cut with
one floor division per halfspace.  The A_n root polytope inside Z^{n+1}
and lower-dimensional custom polytopes are counted exactly on that
path.  Null spaces and ranks come from :mod:`growthlab.linalg`; the
test oracle, a phase-1 simplex with no facet data, is in
``tests/lattice_oracle.py``.

Only the dilates 1..e are counted.  E_P(k) is a polynomial of degree e
(Ehrhart, 1962), so its series is h*(z)/(1-z)^{e+1} with h* of degree
at most e (Stanley, 1980; Beck & Robins ch. 3-4), and E_P(0..e) fix
h*, every later count and the series.

Closed forms for the two families treated here, each written down as
one reduced pair:

* cross-polytope conv(+-e_1..+-e_n):  (1+z)^n/(1-z)^{n+1}
* A_n root polytope conv{e_i - e_j}:  (sum_j C(n,j)^2 z^j)/(1-z)^{n+1},
  equivalently P_n((1+z)/(1-z))/(1-z) with P_n the Legendre polynomial.

The root-polytope numerator is cross-checked against the Legendre
substitution coefficient by coefficient; a mismatch would be an
internal invariant violation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import linalg
from .errors import ArgumentError, CheckFailure, Record, StructuralError
from .series import RationalFunction, binomial_row, poly_mul, poly_trim


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

class LatticePolytope(Record):
    """Vertex-presented polytope with its ambient lattice.

    ``basis`` rows span the lattice inside the ambient space;
    ``vertex_coords`` holds the vertices written in that basis (exact
    integers, computed at construction).  Vertex and basis entries are
    read by :func:`growthlab.linalg.ints`, which refuses any that is not
    an int.  A vertex that is not a point of the lattice is refused with
    its position as ``index``.
    ``normals`` is an integer basis of the null space of the vertex
    differences, the equations of the affine hull, found once at
    construction; it is empty when P is full-dimensional.
    """

    __slots__ = ("ambient_dim", "basis", "vertices", "vertex_coords",
                 "normals")

    @staticmethod
    def make(ambient_dim: int, vertices, basis=None) -> "LatticePolytope":
        if ambient_dim < 1:
            raise ArgumentError("ambient dimension must be positive")
        if basis is None:
            basis = [tuple(int(i == j) for j in range(ambient_dim))
                     for i in range(ambient_dim)]
        basis = tuple(linalg.ints(row, "basis row", "basis entry")
                      for row in linalg.sequence(basis, "basis"))
        for row in basis:
            if len(row) != ambient_dim:
                raise StructuralError("basis row has wrong length")
        if linalg.rank(basis) != len(basis):
            raise StructuralError("lattice basis rows are dependent")
        verts = {}  # each distinct vertex and its first position
        for pos, v in enumerate(linalg.sequence(vertices, "vertices")):
            vt = linalg.ints(v, "vertex", "vertex entry")
            if len(vt) != ambient_dim:
                raise StructuralError("vertex has wrong length")
            verts.setdefault(vt, pos)
        if not verts:
            raise ArgumentError("polytope needs at least one vertex")
        # write each vertex in lattice coordinates, B^T c = v: the rows of
        # B are independent, so the null space of [B^T | -v] is empty or
        # spanned by one primitive (c, t) with t > 0, and t = 1 exactly
        # when c is integral
        coords = []
        for v, pos in verts.items():
            null = linalg.nullspace([[row[i] for row in basis] + [-v[i]]
                                     for i in range(ambient_dim)],
                                    len(basis) + 1)
            if not null:
                raise StructuralError(f"vertex {v} is outside the lattice span", pos)
            *c, t = null[0]
            if t != 1:
                raise StructuralError(f"vertex {v} is not a lattice point", pos)
            coords.append(tuple(c))
        diffs = [[a - b for a, b in zip(v, coords[0])] for v in coords[1:]]
        normals = linalg.nullspace(diffs, len(basis))
        return LatticePolytope(ambient_dim, basis, tuple(verts), tuple(coords),
                               tuple(map(tuple, normals)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def affine_dim(self) -> int:
        return self.rank - len(self.normals)


def _dot(a, x) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


def _halfspaces(P: LatticePolytope) -> list:
    """P as one sorted list of pairs (a, b) in lattice coordinates: x is
    in kP exactly when a.x <= k b for every pair.  Each normal a of P's
    affine hull (``P.normals``) gives (a, b) and (-a, -b).  An e-subset
    of vertices (e = affine_dim) that leaves, with the hull's normals,
    one primitive normal gives a facet when every vertex lies on one
    side of its hyperplane.  The work grows as C(vertices, e), not with
    k."""
    v0 = P.vertex_coords[0]
    halfspaces = {(tuple(s * c for c in a), s * _dot(a, v0))
                  for a in P.normals for s in (1, -1)}
    for subset in combinations(P.vertex_coords, P.affine_dim()):
        flat = [[a - b for a, b in zip(s, subset[0])] for s in subset[1:]]
        normal = linalg.nullspace([*P.normals, *flat], P.rank)
        if len(normal) != 1:
            continue
        # a subset normal is orthogonal to the hull's normals, so never
        # to every vertex difference: at most one side holds them all
        for s in (1, -1):
            a = tuple(s * c for c in normal[0])
            b = _dot(a, subset[0])
            if all(_dot(a, v) <= b for v in P.vertex_coords):
                halfspaces.add((a, b))
    return sorted(halfspaces)


def box(P: LatticePolytope, k: int) -> list:
    """The bounding box of kP in all lattice coordinates but the last,
    one range per coordinate: counting kP walks one line per point."""
    return [range(k * min(col), k * max(col) + 1)
            for col in list(zip(*P.vertex_coords))[:-1]]


def _count(P: LatticePolytope, k: int, halfspaces) -> int:
    """Lattice points of kP for k >= 1, a line at a time: over the
    bounding box of kP in all lattice coordinates but the last, the last
    coordinate t runs over one interval, found with integers only."""
    cuts = [(a[:-1], k * b, a[-1]) for a, b in halfspaces]
    total = 0
    for y in product(*box(P, k)):
        rooms = [(kb - _dot(a, y), at) for a, kb, at in cuts]
        if all(room >= 0 for room, at in rooms if not at):
            # a_t t <= room bounds t above or below by the sign of a_t; P
            # is bounded, so both kinds occur once the lattice has a
            # coordinate, and the defaults give a rank-0 lattice its point
            lo = max((-(-room // at) for room, at in rooms if at < 0),
                     default=0)
            hi = min((room // at for room, at in rooms if at > 0), default=0)
            total += max(0, hi - lo + 1)
    return total


def ehrhart_sequence(P: LatticePolytope, kmax: int) -> list[int]:
    """E_P(0)..E_P(kmax).  Dilates 1..min(kmax, e) are counted, with P's
    halfspaces computed once and only when some dilate is; the counts
    past e are the expansion of the series those counts fix."""
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    e = P.affine_dim()
    counted = min(kmax, e)
    counts = [1]
    if counted:
        halfspaces = _halfspaces(P)
        counts += [_count(P, k, halfspaces) for k in range(1, counted + 1)]
    return counts if kmax <= e else ehrhart_series(counts).expand(kmax)


def ehrhart_series(counts) -> RationalFunction:
    """The Ehrhart series h*(z)/(1-z)^{e+1} of a lattice polytope of
    dimension e, read off its counts E(0..e): h* is (1-z)^{e+1} times
    sum_k E(k) z^k below degree e + 1.  The pair is already reduced, as
    h*(1) is the normalized volume of P, which is positive, and the
    denominator's constant term is 1."""
    e = len(counts) - 1
    denominator = binomial_row(e + 1, -1)
    numerator = poly_trim(poly_mul(list(counts), denominator)[:e + 1])
    return RationalFunction(tuple(numerator), tuple(denominator))


# ---------------------------------------------------------------------------
# the two closed-form families
# ---------------------------------------------------------------------------

def stock_shape(kind: str, n: int) -> tuple:
    """(vertices, ambient dimension) of the n-dimensional "cross" or "root"
    polytope, `kind`, known before cross_polytope or root_polytope runs."""
    return (2 * n, n) if kind == "cross" else (n * (n + 1), n + 1)


def cross_polytope(n: int) -> LatticePolytope:
    """conv(+-e_1, ..., +-e_n) in Z^n, whose vertices are their own
    lattice coordinates on the identity basis; it is full-dimensional,
    so its affine hull has no normals."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    verts = tuple(tuple(sign * x for x in row)
                  for row in basis for sign in (1, -1))
    return LatticePolytope(n, basis, verts, verts, ())


def cross_polytope_series(n: int) -> RationalFunction:
    """Ehrhart series of the n-dimensional cross-polytope,
    (1+z)^n/(1-z)^{n+1}, written reduced: the numerator is 2^n at z = 1
    and the denominator's constant term is 1."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    return RationalFunction(tuple(binomial_row(n)),
                            tuple(binomial_row(n + 1, -1)))


def root_polytope(n: int) -> LatticePolytope:
    """A_n root polytope conv{e_i - e_j, i != j} inside the lattice
    Z^{n+1} with coordinate sum zero, on the basis e_i - e_{i+1}, in
    which each vertex's lattice coordinates are read off directly; it
    is full-dimensional in that lattice, so its affine hull has no
    normals."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    dim = n + 1
    basis = tuple(tuple(int(j == i) - int(j == i + 1) for j in range(dim))
                  for i in range(n))
    verts, coords = [], []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                verts.append(tuple(int(l == i) - int(l == j)
                                   for l in range(dim)))
                # e_i - e_j = +-(sum of e_l - e_{l+1} for l between them)
                lo, hi, s = (i, j, 1) if i < j else (j, i, -1)
                coords.append(tuple(s * int(lo <= l < hi) for l in range(n)))
    return LatticePolytope(dim, basis, tuple(verts), tuple(coords), ())


def legendre(n: int) -> tuple:
    """The Legendre polynomial P_n as exact Fraction coefficients,
    ascending in x, by the three-term recurrence
    (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}."""
    if n < 0:
        raise ArgumentError("degree must be nonnegative")
    p_prev, p_cur = [Fraction(1)], [Fraction(0), Fraction(1)]  # P_0, P_1
    if n == 0:
        return tuple(p_prev)
    for m in range(1, n):
        # x P_m is one longer than P_m, so P_{m-1} is padded by two
        p_prev, p_cur = p_cur, [
            ((2 * m + 1) * a - m * b) / (m + 1)
            for a, b in zip([0] + p_cur, p_prev + [0, 0])]
    return tuple(p_cur)


def root_polytope_series(n: int) -> RationalFunction:
    """Ehrhart series of the A_n root polytope, sum_j C(n,j)^2 z^j over
    (1-z)^{n+1}, written reduced: the numerator is C(2n, n) at z = 1 and
    the denominator's constant term is 1.  Before returning, the
    numerator is checked against the Legendre substitution
    (1-z)^n P_n((1+z)/(1-z)) = sum_i c_i (1+z)^i (1-z)^{n-i}."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    numerator = [comb(n, j) ** 2 for j in range(n + 1)]
    substituted = [0] * (n + 1)
    for i, c in enumerate(legendre(n)):
        term = poly_mul(binomial_row(i), binomial_row(n - i, -1))
        for j, x in enumerate(term):
            substituted[j] += c * x
    if substituted != numerator:
        raise CheckFailure(
            f"root polytope closed forms disagree at n={n}",
            context=(numerator, substituted))
    return RationalFunction(tuple(numerator), tuple(binomial_row(n + 1, -1)))
