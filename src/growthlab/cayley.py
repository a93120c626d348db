"""Exact breadth-first enumeration of word-metric spheres and balls.

For a marked group (G, S) the word length of g is the least k with
g in (S u S^-1)^k.  One private generator, ``_spheres``, expands the
spheres S(1), S(2), ... frontier by frontier; ``enumerate_balls`` turns
their sizes into the exact sphere sizes sigma(k) and ball sizes beta(k)
up to a radius, and ``word_length`` searches them for one element.

Each product is a neighbour g*s of a frontier element g by one element
s of the effective generating set.  ``_spheres`` asks the family once
per s for ``right_multiplier(s)``, the family's one group law: an act
precomputed for that s that maps a batch of elements to their products
g*s (see :mod:`growthlab.groups`).  ``expand`` is the one frontier
step: each act maps the whole frontier in one pass, and the images not
yet seen are appended to the new sphere and then added to the seen
set, stopping once they outgrow the room left in the budget.  The
membership tests, appends and inserts run inside ``filterfalse``,
``list.extend`` and ``set.update``, so no Python code runs per
product.  The product sets of
:func:`growthlab.analysis.dye_quantity_strict` are built by the same
step.

Elements are their own keys: every family stores elements in a
canonical hashable form, so the visited set holds the elements
themselves.  When the marking is symmetrized the Cayley graph is
undirected and every neighbour of S(k) lies in S(k-1), S(k) or S(k+1),
so once S(k+1) is complete S(k-1) is dropped from the visited set; the
set then holds at most three spheres.  As-given markings keep every
element visited.  The element budget counts the whole ball either way.
The enumeration is deterministic: the resulting sizes do not depend on
any iteration order.
"""

from __future__ import annotations

from itertools import accumulate, count, filterfalse, islice

from .config import DEFAULT_ELEMENT_BUDGET
from .errors import ArgumentError, BudgetExceededError, Record
from .groups import MarkedGroup


class BallTable(Record):
    """Sphere and ball sizes of a marked group up to radius_max."""

    __slots__ = ("radius_max", "sphere_sizes", "ball_sizes",
                 "group_description")

    def __init__(self, radius_max: int, sphere_sizes: tuple,
                 ball_sizes: tuple, group_description: str = ""):
        n = radius_max
        if n < 0:
            raise ArgumentError("radius_max must be nonnegative")
        if len(sphere_sizes) != n + 1 or len(ball_sizes) != n + 1:
            raise ArgumentError("table length does not match radius_max")
        if sphere_sizes[0] != 1:
            raise ArgumentError("sphere of radius 0 must have size 1")
        acc = 0
        for s, b in zip(sphere_sizes, ball_sizes):
            if s < 0:
                raise ArgumentError("sphere sizes must be nonnegative")
            acc += s
            if b != acc:
                raise ArgumentError("ball sizes must be partial sums of sphere sizes")
        if any(a == 0 < b for a, b in zip(sphere_sizes, sphere_sizes[1:])):
            # a Cayley graph never reaches past an empty sphere
            raise ArgumentError("a sphere cannot be nonempty after an empty one")
        super().__init__(n, sphere_sizes, ball_sizes, group_description)

    def to_csv_lines(self) -> list[str]:
        lines = ["k,sigma,beta"]
        for k in range(self.radius_max + 1):
            lines.append(f"{k},{self.sphere_sizes[k]},{self.ball_sizes[k]}")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_description,
            "radius_max": str(self.radius_max),
            "sphere_sizes": [str(x) for x in self.sphere_sizes],
            "ball_sizes": [str(x) for x in self.ball_sizes],
        }


def _table(radius: int, sigma: list[int], description: str) -> BallTable:
    return BallTable(radius, tuple(sigma), tuple(accumulate(sigma)),
                     description)


def expand(acts, frontier, seen, room: int) -> list | None:
    """The images of ``frontier`` under each act that ``seen`` does not
    hold, in act order; each is added to ``seen`` as its act finishes.

    g -> g*s is injective, so one act's images of a frontier are
    distinct and only ``seen`` can hold them already.  At most one
    element more than ``room`` is drawn: when that many turn up the step
    stops and returns None, so a caller stores no more than room + 1
    new elements before it reports its budget.
    """
    new = []
    for act in acts:
        start = len(new)
        new.extend(islice(filterfalse(seen.__contains__, act(frontier)),
                          room - start + 1))
        seen.update(islice(new, start, None))
        if len(new) > room:
            return None
    return new


def _spheres(m: MarkedGroup, element_budget: int):
    """Yield the spheres S(1), S(2), ... of ``m`` as lists, forever
    (empty once a finite group is exhausted).

    Raises BudgetExceededError, without a partial table, when the ball
    would outgrow ``element_budget`` elements; its message names the
    elements stored, the frontier being expanded and the bound
    |frontier|*|S| on the sphere it was building.
    """
    fam = m.family
    acts = [fam.right_multiplier(s) for s in m.effective_generating_set()]
    ident = fam.identity()
    visited = {ident}
    before, frontier = [], [ident]
    stored = 1
    for k in count(1):
        sphere = expand(acts, frontier, visited, element_budget - stored)
        if sphere is None:
            f, n = len(frontier), len(acts)
            raise BudgetExceededError(
                f"element budget {element_budget} exhausted while "
                f"expanding radius {k}: {element_budget} elements "
                f"stored, frontier |S({k - 1})| = {f}, next sphere "
                f"estimate |S({k - 1})|*|S| = {f}*{n} = {f * n}",
                last_radius=k - 1)
        stored += len(sphere)
        if m.symmetrize:
            # undirected graph: S(k+1) has no neighbour in S(k-1)
            visited.difference_update(before)
            before = frontier
        yield sphere
        frontier = sphere


def enumerate_balls(m: MarkedGroup, kmax: int,
                    element_budget: int = DEFAULT_ELEMENT_BUDGET) -> BallTable:
    """Exact sphere sizes sigma(0..kmax) of the marked group.

    Raises BudgetExceededError when the ball would outgrow
    ``element_budget`` elements; the error carries the last completed
    radius and the partial table up to it.
    """
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    if element_budget <= 0:
        raise ArgumentError("element_budget must be positive")
    sigma = [1]
    try:
        for _, sphere in zip(range(kmax), _spheres(m, element_budget)):
            sigma.append(len(sphere))
    except BudgetExceededError as exc:
        exc.partial = _table(exc.last_radius, sigma, m.describe())
        raise
    return _table(kmax, sigma, m.describe())


def word_length(m: MarkedGroup, g, kmax: int,
                element_budget: int = DEFAULT_ELEMENT_BUDGET) -> int | None:
    """Least k <= kmax with g in the k-ball, or None when kmax is not
    enough.  Family mismatch raises StructuralError.

    The target is looked for only once its sphere is complete, so the
    element budget must hold the whole ball of radius word_length(g).
    """
    if element_budget <= 0:
        raise ArgumentError("element_budget must be positive")
    target = m.family.canonicalize(g)
    if target == m.family.identity():
        return 0
    for k, sphere in zip(range(1, kmax + 1), _spheres(m, element_budget)):
        if target in sphere:
            return k
        if not sphere:
            return None
    return None
