"""Exact lattice-point counting in integer dilates of lattice polytopes.

A polytope is given by its vertices (integer vectors in an ambient
space) together with a basis of the lattice it lives in; for full
Z^n the basis is the identity and can be omitted.  Counting works in
lattice coordinates: candidate points are enumerated over the exact
bounding box of the dilated vertex set and membership in the convex
hull is decided by a phase-1 simplex over the rationals with Bland's
rule, so no convex-hull or facet computation is ever needed.  That is
what makes the lower-dimensional root-polytope case (the A_n lattice
inside Z^{n+1}) painless.  Lattice coordinates of the vertices and the
rank checks at construction come from the exact routines in
:mod:`growthlab.linalg`.

Closed forms for the two families treated here:

* cross-polytope conv(+-e_1..+-e_n):  (1/(1-z)) ((1+z)/(1-z))^n
* A_n root polytope conv{e_i - e_j}:  (sum_j C(n,j)^2 z^j)/(1-z)^{n+1},
  equivalently P_n((1+z)/(1-z))/(1-z) with P_n the Legendre polynomial.

Both forms of the root-polytope series are computed independently and
compared; a mismatch would be an internal invariant violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from . import linalg
from .errors import ArgumentError, CheckFailure, StructuralError
from .series import RationalFunction, poly_mul

Vec = tuple


# ---------------------------------------------------------------------------
# phase-1 simplex feasibility
# ---------------------------------------------------------------------------

def _hull_contains(columns: list[Vec], rhs: Vec) -> bool:
    """Is rhs a convex combination of the given columns?

    Solves feasibility of {lam >= 0, sum lam = 1, sum lam_i col_i = rhs}
    by minimizing the sum of artificial variables with exact fractions;
    Bland's rule guarantees termination.
    """
    m = len(rhs) + 1
    n = len(columns)
    # tableau rows: [lambda columns | artificial columns | rhs]
    rows = []
    for i in range(m):
        if i == 0:
            coeffs = [Fraction(1)] * n
            b = Fraction(1)
        else:
            coeffs = [Fraction(c[i - 1]) for c in columns]
            b = Fraction(rhs[i - 1])
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        rows.append(coeffs + [Fraction(int(j == i)) for j in range(m)] + [b])
    basis = [n + i for i in range(m)]

    while True:
        # phase-1 reduced costs over the real columns only; artificial
        # variables are never allowed back into the basis
        z = [Fraction(0)] * n
        for i in range(m):
            if basis[i] >= n:
                row = rows[i]
                for j in range(n):
                    if row[j]:
                        z[j] += row[j]
        entering = next(
            (j for j in range(n) if j not in basis and z[j] > 0), None)
        if entering is None:
            w = sum(rows[i][-1] for i in range(m) if basis[i] >= n)
            return w == 0
        # ratio test, Bland tie-break on the leaving basic variable
        leave = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            # unbounded phase-1 objective cannot happen (w >= 0), but a
            # missing leave row means the entering column is nonpositive
            return False
        piv = rows[leave][entering]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][entering]:
                f = rows[i][entering]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
        basis[leave] = entering


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePolytope:
    """Vertex-presented polytope with its ambient lattice.

    ``basis`` rows span the lattice inside the ambient space;
    ``vertex_coords`` holds the vertices written in that basis (exact
    integers, computed at construction).
    """

    ambient_dim: int
    basis: tuple
    vertices: tuple
    vertex_coords: tuple

    @staticmethod
    def make(ambient_dim: int, vertices, basis=None) -> "LatticePolytope":
        if ambient_dim < 1:
            raise ArgumentError("ambient dimension must be positive")
        if basis is None:
            basis = [tuple(int(i == j) for j in range(ambient_dim))
                     for i in range(ambient_dim)]
        basis = tuple(tuple(int(x) for x in row) for row in basis)
        for row in basis:
            if len(row) != ambient_dim:
                raise StructuralError("basis row has wrong length")
        if linalg.rank(basis) != len(basis):
            raise StructuralError("lattice basis rows are dependent")
        verts = []
        seen = set()
        for v in vertices:
            vt = tuple(int(x) for x in v)
            if len(vt) != ambient_dim:
                raise StructuralError("vertex has wrong length")
            if vt not in seen:
                seen.add(vt)
                verts.append(vt)
        if not verts:
            raise ArgumentError("polytope needs at least one vertex")
        # write each vertex in lattice coordinates: solve B^T c = v
        bt = [[row[i] for row in basis] for i in range(ambient_dim)]
        coords = []
        for v in verts:
            sol = linalg.solve(bt, v)
            if sol is None:
                raise StructuralError(f"vertex {v} is outside the lattice span")
            if any(c.denominator != 1 for c in sol):
                raise StructuralError(f"vertex {v} is not a lattice point")
            coords.append(tuple(int(c) for c in sol))
        return LatticePolytope(ambient_dim, basis, tuple(verts), tuple(coords))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def affine_dim(self) -> int:
        v0 = self.vertex_coords[0]
        diffs = [tuple(a - b for a, b in zip(v, v0))
                 for v in self.vertex_coords[1:]]
        if not diffs:
            return 0
        return linalg.rank(diffs)


def count_dilate(P: LatticePolytope, k: int) -> int:
    """Exact number of lattice points in the k-th dilate of P."""
    if k < 0:
        raise ArgumentError("dilation factor must be nonnegative")
    if k == 0:
        return 1
    scaled = [tuple(k * c for c in v) for v in P.vertex_coords]
    rank = P.rank
    lo = [min(v[j] for v in scaled) for j in range(rank)]
    hi = [max(v[j] for v in scaled) for j in range(rank)]
    count = 0
    for point in product(*(range(lo[j], hi[j] + 1) for j in range(rank))):
        if _hull_contains(scaled, point):
            count += 1
    return count


def ehrhart_sequence(P: LatticePolytope, kmax: int) -> list[int]:
    """E_P(0)..E_P(kmax)."""
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    return [count_dilate(P, k) for k in range(kmax + 1)]


# ---------------------------------------------------------------------------
# the two closed-form families
# ---------------------------------------------------------------------------

def cross_polytope(n: int) -> LatticePolytope:
    """conv(+-e_1, ..., +-e_n) in Z^n."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    verts = []
    for i in range(n):
        for sign in (1, -1):
            verts.append(tuple(sign * int(i == j) for j in range(n)))
    return LatticePolytope.make(n, verts)


def cross_polytope_series(n: int) -> RationalFunction:
    """Ehrhart series of the n-dimensional cross-polytope:
    (1/(1-z)) ((1+z)/(1-z))^n, normalized."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    ball = RationalFunction.make([1], [1, -1])
    growth = RationalFunction.make([1, 1], [1, -1]) ** n
    return ball * growth


def root_polytope(n: int) -> LatticePolytope:
    """A_n root polytope conv{e_i - e_j, i != j} inside the lattice
    Z^{n+1} with coordinate sum zero."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    dim = n + 1
    basis = [tuple(int(j == i) - int(j == i + 1) for j in range(dim))
             for i in range(n)]
    verts = []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                verts.append(tuple(int(l == i) - int(l == j) for l in range(dim)))
    return LatticePolytope.make(dim, verts, basis)


@dataclass(frozen=True)
class LegendrePoly:
    """Exact Legendre polynomial P_n; coefficients ascending in x."""

    degree: int
    coefficients: tuple  # Fractions

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def legendre(n: int) -> LegendrePoly:
    """P_n by the three-term recurrence
    (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}."""
    if n < 0:
        raise ArgumentError("degree must be nonnegative")
    p_prev = [Fraction(1)]       # P_0
    if n == 0:
        return LegendrePoly(0, tuple(p_prev))
    p_cur = [Fraction(0), Fraction(1)]  # P_1 = x
    for m in range(1, n):
        shifted = [Fraction(0)] + p_cur  # x * P_m
        nxt_len = max(len(shifted), len(p_prev))
        nxt = []
        for i in range(nxt_len):
            a = shifted[i] if i < len(shifted) else Fraction(0)
            b = p_prev[i] if i < len(p_prev) else Fraction(0)
            nxt.append(((2 * m + 1) * a - m * b) / (m + 1))
        p_prev, p_cur = p_cur, nxt
    return LegendrePoly(n, tuple(p_cur))


def root_polytope_series(n: int) -> RationalFunction:
    """Ehrhart series of the A_n root polytope, computed two ways
    (binomial-square numerator over (1-z)^{n+1}; Legendre substitution
    P_n((1+z)/(1-z))/(1-z)) and cross-checked before returning."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    numerator = [comb(n, j) ** 2 for j in range(n + 1)]
    den = [1]
    for _ in range(n + 1):
        den = poly_mul(den, [1, -1])
    form_binomial = RationalFunction.make(numerator, den)

    u = RationalFunction.make([1, 1], [1, -1])
    coeffs = legendre(n).coefficients
    acc = RationalFunction.constant(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * u + RationalFunction.constant(c)
    form_legendre = acc * RationalFunction.make([1], [1, -1])

    if form_binomial != form_legendre:
        raise CheckFailure(
            f"root polytope closed forms disagree at n={n}",
            context=(form_binomial, form_legendre))
    return form_binomial
