"""Seeded job descriptions for the three benchmark workloads.

A workload is a fixed list of jobs; a job is one growthlab CLI command
with its config document.  Seed 0 gives the stock presentations: the
standard generators, the stock vertex lists and the identity Gram
matrix.  Any other seed presents the same objects under a seeded
symmetry (a signed permutation of generators or coordinates, a sign
change of a lattice basis), so every number a job prints is the same
for all seeds; only the path the program takes to it may differ.

Why these workloads:

* growth-free      exponential growth: three of every four products in
                   the F_2 ball search are new elements, so the visited
                   set is written on most products and memory peaks.
* growth-nilpotent polynomial growth: the same ball search mostly finds
                   elements it has already seen (Z^3, Heisenberg), and
                   the series recognizer and classifier run.
* lattice-count    exact rational kernels with no ball search: Ehrhart
                   counting by simplex, theta descent, Gauss bound check.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

WORKLOADS = ("growth-free", "growth-nilpotent", "lattice-count")

# The size each job kind takes for the set-up measurement: the smallest
# input the CLI accepts (`analyze` refuses kmax below 6).
ZERO_SIZE = {"free": 0, "free-abelian": 0, "heisenberg": 6, "cross": 0,
             "root": 0, "theta": 0, "gauss": 1}


@dataclass(frozen=True)
class Job:
    """One CLI command.  ``size`` is its kmax, rmax or tmax; ``data`` holds
    the structured inputs the config document is written from."""

    name: str
    command: str
    kind: str
    size: int
    data: dict
    flags: tuple = ()

    def entries(self) -> list:
        """The config document as (key, value) lines, in file order."""
        d = self.data
        if self.kind in ("free", "free-abelian"):
            return ([("family", self.kind), ("rank", str(d["rank"]))]
                    + [("generator", _row(g)) for g in d["generators"]]
                    + [("kmax", str(self.size))])
        if self.kind == "heisenberg":
            return ([("family", "matrix"), ("dim", "3")]
                    + [("generator", " ; ".join(_row(r) for r in g))
                       for g in d["generators"]]
                    + [("kmax", str(self.size))])
        if self.kind in ("cross", "root"):
            return ([("polytope", "custom"),
                     ("ambient-dim", str(len(d["vertices"][0])))]
                    + [("vertex", _row(v)) for v in d["vertices"]]
                    + [("basis", _row(b)) for b in d.get("basis", ())]
                    + [("kmax", str(self.size))])
        if self.kind == "theta":
            return ([("gram", _row(r)) for r in d["gram"]]
                    + [("rmax", str(self.size))])
        if self.kind == "gauss":
            out = [("tmax", str(self.size))]
            if d.get("dyadic_to") is not None:
                out.append(("dyadic-to", str(d["dyadic_to"])))
            return out
        raise ValueError(f"unknown job kind {self.kind!r}")

    def document(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries())

    def at_size_zero(self) -> "Job":
        data = dict(self.data)
        data.pop("dyadic_to", None)
        return dataclasses.replace(self, size=ZERO_SIZE[self.kind], data=data)


def _row(values) -> str:
    return " ".join(str(v) for v in values)


def _signed_permutation(rng: random.Random, n: int, seed: int) -> list:
    """[(target index, sign)] for each source index; identity at seed 0."""
    if seed == 0:
        return [(i, 1) for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [(p, rng.choice((1, -1))) for p in perm]


def _apply(q: list, vec) -> tuple:
    out = [0] * len(vec)
    for i, (p, s) in enumerate(q):
        out[p] = s * vec[i]
    return tuple(out)


def _unit(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def free_job(seed: int) -> Job:
    """F_2 on a free basis: a signed permutation of the letters, listed in
    seeded order."""
    rng = random.Random(f"{seed}:f2")
    gens = [(s * (p + 1),) for p, s in _signed_permutation(rng, 2, seed)]
    return Job("f2", "growth", "free", 12, {"rank": 2, "generators": gens})


def z3_job(seed: int) -> Job:
    """Z^3 on a signed permutation of e_1, e_2, e_3."""
    rng = random.Random(f"{seed}:z3")
    gens = [tuple(s * x for x in _unit(3, p))
            for p, s in _signed_permutation(rng, 3, seed)]
    return Job("z3", "growth", "free-abelian", 60,
               {"rank": 3, "generators": gens})


def heisenberg_job(seed: int) -> Job:
    """H_3(Z) as explicit matrices: x = I + E12 and y = I + E23, each
    possibly inverted, in seeded order."""
    rng = random.Random(f"{seed}:heisenberg")
    gens = []
    for p, s in _signed_permutation(rng, 2, seed):
        m = [list(_unit(3, r)) for r in range(3)]
        m[p][p + 1] = s  # p = 0 gives x^s, p = 1 gives y^s
        gens.append(tuple(tuple(r) for r in m))
    return Job("heisenberg", "analyze", "heisenberg", 20,
               {"generators": gens})


def cross_job(seed: int) -> Job:
    """conv(+-e_1, +-e_2, +-e_3) as vertex rows under a signed permutation
    of the coordinates.  The lattice is Z^3, so the lattice coordinates
    of the vertices are the vertex rows themselves."""
    rng = random.Random(f"{seed}:cross")
    q = _signed_permutation(rng, 3, seed)
    stock = [tuple(s * x for x in _unit(3, i)) for i in range(3) for s in (1, -1)]
    verts = [_apply(q, v) for v in stock]
    return Job("cross3", "ehrhart", "cross", 8,
               {"n": 3, "vertices": verts, "coords": verts})


def root_job(seed: int) -> Job:
    """The A_3 root polytope conv{e_i - e_j} inside the sum-zero lattice of
    Z^4 with basis e_i - e_{i+1}, both under one signed permutation of
    the coordinates.  The map is a lattice isometry, so the lattice
    coordinates of each vertex do not depend on the seed."""
    rng = random.Random(f"{seed}:root")
    q = _signed_permutation(rng, 4, seed)
    basis, verts, coords = [], [], []
    for i in range(3):
        basis.append(_apply(q, tuple(int(l == i) - int(l == i + 1)
                                     for l in range(4))))
    for i in range(4):
        for j in range(4):
            if i != j:
                verts.append(_apply(q, tuple(int(l == i) - int(l == j)
                                             for l in range(4))))
                # e_i - e_j = +-(sum of e_l - e_{l+1} for l between them)
                lo, hi, s = (i, j, 1) if i < j else (j, i, -1)
                coords.append(tuple(s * int(lo <= l < hi) for l in range(3)))
    return Job("root3", "ehrhart", "root", 6,
               {"n": 3, "vertices": verts, "basis": basis, "coords": coords})


# U0 = I + E_01 + E_23 + E_45 + E_67 (pairs of basis vectors sheared
# together).  Other seeds use U = Q U0 D with Q a signed permutation and D
# a diagonal sign matrix, so the Gram matrix U^T U = D U0^T U0 D differs
# from seed to seed only by the signs D; the descent visits an isomorphic
# tree, and the cost stays the same across seeds.
_SHEAR = [[int(i == j) + int(j == i + 1 and i % 2 == 0) for j in range(8)]
          for i in range(8)]


def theta_job(seed: int) -> Job:
    """Z^8 under a seeded unimodular basis change with entries in
    {-1, 0, 1}; the identity at seed 0."""
    n = 8
    if seed == 0:
        u = [list(_unit(n, i)) for i in range(n)]
    else:
        rng = random.Random(f"{seed}:theta")
        q = _signed_permutation(rng, n, seed)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        shear = [[_SHEAR[i][j] * signs[j] for j in range(n)] for i in range(n)]
        u = [list(_apply(q, [shear[i][j] for i in range(n)]))
             for j in range(n)]                       # columns of Q U0 D
        u = [[u[j][i] for j in range(n)] for i in range(n)]
    gram = [[sum(u[k][i] * u[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return Job("z8", "theta", "theta", 12, {"gram": gram})


def gauss_job(seed: int) -> Job:
    """The Gauss circle bound check for t <= 10^4 plus the powers of two up
    to 10^7; it has no presentation to vary, so every seed gives the same
    input."""
    return Job("gauss", "gauss", "gauss", 10_000, {"dyadic_to": 10_000_000},
               flags=("--check-bound",))


def build(workload: str, seed: int) -> list:
    """The jobs of one workload for one seed, in the order they run."""
    if workload == "growth-free":
        return [free_job(seed)]
    if workload == "growth-nilpotent":
        return [z3_job(seed), heisenberg_job(seed)]
    if workload == "lattice-count":
        return [cross_job(seed), root_job(seed), theta_job(seed),
                gauss_job(seed)]
    raise ValueError(f"unknown workload {workload!r} (choose from "
                     f"{', '.join(WORKLOADS)})")
