"""Theta-series prefixes of positive-definite integral lattices.

The coefficient r(m) counts lattice vectors of squared norm m, i.e.
integer coordinate vectors c with c^T G c = m for the Gram matrix G.
The primary enumerator is Fincke-Pohst style: an exact rational LDL^T
decomposition of G (from the fraction-free elimination in
:mod:`growthlab.linalg`) turns the form into sum_i d_i y_i^2 with
y_i = x_i + sum_{j>i} L_ji x_j, and coordinates are enumerated from the
last one down with exact interval bounds at every level.  A naive box
scan over |x_i| <= sqrt(rmax * (G^{-1})_ii) is kept as an independent
oracle for small ranks; it computes the diagonal of G^{-1} with its own
elimination so that it shares no code with the enumerator.

For Z^n the theta series is the n-th power of
theta3 = 1 + 2q + 2q^4 + 2q^9 + ...; `theta3_power` produces that
truncation directly by series multiplication so the enumerator can be
cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from . import linalg
from .errors import ArgumentError, StructuralError


@dataclass(frozen=True)
class IntegralLattice:
    """Lattice presented by a symmetric positive-definite integer Gram
    matrix of pairwise inner products of basis vectors."""

    rank: int
    gram: tuple

    @staticmethod
    def make(gram) -> "IntegralLattice":
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(rows)
        if n == 0:
            raise StructuralError("gram matrix is empty")
        if any(len(row) != n for row in rows):
            raise StructuralError("gram matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise StructuralError("gram matrix is not symmetric")
        linalg.ldl(rows)  # raises when not positive definite
        return IntegralLattice(n, rows)


@dataclass(frozen=True)
class ThetaPrefix:
    """counts[m] = number of lattice vectors of squared norm m."""

    rmax: int
    counts: tuple

    def __post_init__(self):
        if self.rmax < 0:
            raise ArgumentError("rmax must be nonnegative")
        if len(self.counts) != self.rmax + 1:
            raise ArgumentError("counts length does not match rmax")
        if self.counts[0] != 1:
            raise ArgumentError("theta prefix must start with a single zero vector")
        for m, c in enumerate(self.counts):
            if c < 0 or (m >= 1 and c % 2 != 0):
                raise ArgumentError(
                    f"coefficient at norm {m} violates the +-x pairing")

    def vector_count(self, norm_bound: int) -> int:
        """Exact number of lattice vectors of squared norm <= norm_bound."""
        if norm_bound < 0 or norm_bound > self.rmax:
            raise ArgumentError("norm bound outside the computed prefix")
        return sum(self.counts[: norm_bound + 1])

    def to_csv_lines(self) -> list:
        lines = ["m,r"]
        for m, c in enumerate(self.counts):
            lines.append(f"{m},{c}")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "rmax": self.rmax,
            "counts": [str(c) for c in self.counts],
        }


@dataclass(frozen=True)
class MatchReport:
    matched: bool
    first_mismatch: int | None
    length: int

    def describe(self) -> str:
        if self.matched:
            return f"full match over {self.length} coefficients"
        return f"disagreement at index {self.first_mismatch}"


def theta_coefficients(L: IntegralLattice, rmax: int) -> ThetaPrefix:
    """Exact theta coefficients r(0..rmax) by recursive bounded
    enumeration with rational LDL^T coordinate bounds."""
    if rmax < 0:
        raise ArgumentError("rmax must be nonnegative")
    low, d = linalg.ldl(L.gram)
    n = L.rank
    counts = [0] * (rmax + 1)
    budget = Fraction(rmax)

    def descend(i: int, remaining: Fraction, coords: list):
        if i < 0:
            norm = budget - remaining
            counts[int(norm)] += 1
            return
        # y_i = x_i + c with c determined by the already-fixed coords
        c = Fraction(0)
        for j in range(i + 1, n):
            if low[j][i]:
                c += low[j][i] * coords[j]
        # d_i (x_i + c)^2 <= remaining; float guess, exact tightening
        s = (float(remaining) / float(d[i])) ** 0.5
        cf = float(c)
        lo = int(-s - cf) - 2
        hi = int(s - cf) + 2
        while lo <= hi and d[i] * (lo + c) ** 2 > remaining:
            lo += 1
        while hi >= lo and d[i] * (hi + c) ** 2 > remaining:
            hi -= 1
        for x in range(lo, hi + 1):
            coords[i] = x
            descend(i - 1, remaining - d[i] * (x + c) ** 2, coords)
        coords[i] = 0

    descend(n - 1, budget, [0] * n)
    return ThetaPrefix(rmax, tuple(counts))


def _inverse_diagonal(gram) -> list:
    """Diagonal entries of G^{-1}, exact."""
    n = len(gram)
    aug = [[Fraction(gram[i][j]) for j in range(n)]
           + [Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[col])]
    return [aug[i][n + i] for i in range(n)]


def theta_naive(L: IntegralLattice, rmax: int) -> ThetaPrefix:
    """Independent oracle: scan the exact bounding box
    |x_i| <= sqrt(rmax * (G^{-1})_ii) and evaluate the form directly.
    Intended for small ranks and bounds only."""
    if rmax < 0:
        raise ArgumentError("rmax must be nonnegative")
    n = L.rank
    g = L.gram
    inv_diag = _inverse_diagonal(g)
    bounds = [isqrt(int(Fraction(rmax) * q)) for q in inv_diag]
    counts = [0] * (rmax + 1)
    for x in product(*(range(-b, b + 1) for b in bounds)):
        norm = 0
        for i in range(n):
            xi = x[i]
            if xi:
                norm += g[i][i] * xi * xi
                for j in range(i):
                    norm += 2 * g[i][j] * xi * x[j]
        if 0 <= norm <= rmax:
            counts[norm] += 1
    return ThetaPrefix(rmax, tuple(counts))


def theta3_power(n: int, rmax: int) -> list:
    """Coefficients 0..rmax of (1 + 2q + 2q^4 + 2q^9 + ...)^n."""
    if n < 1:
        raise ArgumentError("n must be at least 1")
    if rmax < 0:
        raise ArgumentError("rmax must be nonnegative")
    base = [0] * (rmax + 1)
    base[0] = 1
    i = 1
    while i * i <= rmax:
        base[i * i] = 2
        i += 1
    out = [0] * (rmax + 1)
    out[0] = 1
    for _ in range(n):
        nxt = [0] * (rmax + 1)
        for a, ca in enumerate(out):
            if ca:
                for b in range(rmax + 1 - a):
                    if base[b]:
                        nxt[a + b] += ca * base[b]
        out = nxt
    return out


def compare_sequences(a, b) -> MatchReport:
    """Element-wise comparison of two coefficient sequences of equal
    length; reports the first index of disagreement."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ArgumentError("sequences have different lengths")
    if not a:
        raise ArgumentError("nothing to compare")
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return MatchReport(False, i, len(a))
    return MatchReport(True, None, len(a))


def compare_theta(L: IntegralLattice, seq) -> MatchReport:
    """Enumerate theta coefficients of L out to len(seq)-1 and compare
    against the given sequence."""
    seq = list(seq)
    if not seq:
        raise ArgumentError("nothing to compare")
    prefix = theta_coefficients(L, len(seq) - 1)
    return compare_sequences(prefix.counts, seq)
