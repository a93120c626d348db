"""Theta-series prefixes of positive-definite integral lattices.

The coefficient r(m) counts lattice vectors of squared norm m, i.e.
integer coordinate vectors c with c^T G c = m for the Gram matrix G.
The enumerator is a Fincke-Pohst descent (Fincke & Pohst, Math.
Comp. 44, 1985) that runs on Python ints alone: the fraction-free
elimination in :mod:`growthlab.linalg`, run once per lattice, writes
the form as sum_i u_i^2 / (p_i p_{i-1}) with integer u_i and pivot
minors p_i, scaling by the lcm of the denominators makes every term an
integer, and coordinates are enumerated from the last one down with
`isqrt` and floor-division bounds at every level.  Its independent
oracle, a naive box scan over |x_i| <= sqrt(rmax * (G^{-1})_ii) with
its own elimination, lives with the tests (``tests/lattice_oracle.py``).

A ``ThetaPrefix`` holds only the counts r(0..rmax) and reads rmax off
them; it refuses counts that no lattice has: r(0) other than 1, or a
negative or odd r(m) for m >= 1, since x and -x pair up.

For Z^n the theta series is the n-th power of
theta3 = 1 + 2q + 2q^4 + 2q^9 + ...; `theta3_power` produces that
truncation directly by series multiplication so the enumerator can be
cross-checked against it.
"""

from __future__ import annotations

from math import isqrt, lcm

from . import linalg
from .errors import ArgumentError, Record, StructuralError


class IntegralLattice(Record):
    """Lattice presented by a symmetric positive-definite integer Gram
    matrix of pairwise inner products of basis vectors.  ``ldl`` keeps
    the rows of its one elimination, :func:`growthlab.linalg.ldl`."""

    __slots__ = ("rank", "gram", "ldl")

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
        # ldl raises when the form is not positive definite
        return IntegralLattice(n, rows, tuple(map(tuple, linalg.ldl(rows))))


class ThetaPrefix(Record):
    """counts[m] = number of lattice vectors of squared norm m, for
    m = 0..rmax; rmax is read off the counts."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple):
        counts = tuple(counts)
        if counts[:1] != (1,):
            raise ArgumentError("theta prefix must start with a single zero vector")
        for m, c in enumerate(counts):
            if c < 0 or (m >= 1 and c % 2 != 0):
                raise ArgumentError(
                    f"coefficient at norm {m} violates the +-x pairing")
        super().__init__(counts)

    @property
    def rmax(self) -> int:
        return len(self.counts) - 1

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


def theta_coefficients(L: IntegralLattice, rmax: int) -> ThetaPrefix:
    """Exact theta coefficients r(0..rmax) by Fincke-Pohst descent in
    integers.

    With the integer LDL^T form that the lattice keeps from
    :func:`growthlab.linalg.ldl`, the norm is sum_i u_i^2 / N_i with
    N_i = p_i p_{i-1}; scaled by delta = lcm(N_i) it is sum_i w_i u_i^2
    with integer weights w_i = delta / N_i.  Level i fixes x_i with
    w_i u_i^2 <= R, where R is what is left of delta * rmax, i.e.
    |u_i| <= isqrt(R // w_i), and u_i = p_i x_i + c with c fixed by
    x_{i+1..n-1}, so the range of x_i comes from floor division.
    """
    if rmax < 0:
        raise ArgumentError("rmax must be nonnegative")
    m, n = L.ldl, L.rank
    piv = [m[i][i] for i in range(n)]
    norms = [piv[i] * (piv[i - 1] if i else 1) for i in range(n)]
    delta = lcm(*norms)
    weight = [delta // q for q in norms]
    tail = [[(j, m[i][j]) for j in range(i + 1, n) if m[i][j]]
            for i in range(n)]
    top = delta * rmax
    counts = [0] * (rmax + 1)
    # the descent keeps one explicit frame per level: its x_i, the last
    # x_i in range, c and what is left of top before x_i is chosen
    x = [0] * n
    end = [0] * n
    shift = [0] * n
    left = [0] * n
    left[-1] = top
    i = n - 1
    while True:
        p, w = piv[i], weight[i]
        c = sum(mij * x[j] for j, mij in tail[i])
        t = isqrt(left[i] // w)
        lo = -((t + c) // p)
        hi = (t - c) // p
        if i == 0:
            used = top - left[0]
            for u in range(p * lo + c, p * hi + c + 1, p):
                counts[(used + w * u * u) // delta] += 1
            i = 1
        else:  # x_i starts one below lo; lo <= hi + 1, so an empty
            # range reads as spent at once
            x[i], end[i], shift[i] = lo - 1, hi, c
        # climb past the levels whose range is spent, step the next x_i
        # and enter the level below it
        while i < n and x[i] == end[i]:
            i += 1
        if i == n:
            break
        x[i] += 1
        u = piv[i] * x[i] + shift[i]
        left[i - 1] = left[i] - weight[i] * u * u
        i -= 1
    return ThetaPrefix(counts)


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
