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
step: each act maps its whole batch in one pass, and the images not
yet seen are kept in that act's list and then added to the seen set,
stopping once they outgrow the room left in the budget.  The
membership tests, appends and inserts run inside ``filterfalse``,
``list`` and ``set.update``, so no Python code runs per product.  The
product sets of :func:`growthlab.analysis.dye_quantity_strict` are
built by the same step, with every act mapping the whole set.

Each sphere S(k) is kept as one list per act i, holding the elements
that act found first, h = g*s_i with g in S(k-1).  Two rules restrict
which of these lists act i maps, so the search walks each element
along one normal form of its geodesics:

* never step back: act i skips the list of the act of s_i^-1, because
  h*s_i^-1 = g is in S(k-1) and already visited;
* commuting letters in order: when the family's law is commutative
  (``family.commutative``), act i also skips the lists of acts j > i.
  By induction on k, the act that first finds h is the least possible
  largest letter s_m over h's geodesics: sorted, such a geodesic ends
  in s_m, its prefix lies in a list m' <= m, which act m maps, and no
  earlier act can reach h.

Neither rule drops an element: what is skipped is known or found by
another act.  S(0) = {e} is mapped by every act.

Elements are their own keys: every family stores elements in a
canonical hashable form, so the visited set holds the elements
themselves.  When the marking is symmetrized the Cayley graph is
undirected and every neighbour of S(k) lies in S(k-1), S(k) or S(k+1),
so once S(k+1) is complete S(k-1) is dropped from the visited set, in
one ``difference_update`` over all its lists (CPython may rebuild the
table after each such call, at four times its live entries, so one
call per list doubled the Z^3 table); the set then holds at most three
spheres.  As-given markings keep every element
visited.  The element budget counts the whole ball either way.  The
enumeration is deterministic, and the sphere sizes do not depend on
any iteration order.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, filterfalse, islice

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


def expand(acts, batches, seen, room: int) -> list | None:
    """One list per act: the images of that act's batch that ``seen``
    does not hold, each added to ``seen`` as its act finishes.

    g -> g*s is injective, so one act's images of a batch are distinct
    and only ``seen`` can hold them already.  At most one element more
    than ``room`` is drawn: when that many turn up the step stops and
    returns None, so a caller stores no more than room + 1 new elements
    before it reports its budget.
    """
    found = []
    for act, batch in zip(acts, batches):
        new = list(islice(filterfalse(seen.__contains__, act(batch)),
                          room + 1))
        seen.update(new)
        found.append(new)
        room -= len(new)
        if room < 0:
            return None
    return found


def _spheres(m: MarkedGroup, element_budget: int):
    """Yield the spheres S(1), S(2), ... of ``m``, forever (empty once a
    finite group is exhausted), each as one list per act: the elements
    that act found first.

    Raises BudgetExceededError, without a partial table, when the ball
    would outgrow ``element_budget`` elements; its message names the
    elements stored, the frontier being expanded and the bound
    |frontier|*|S| on the sphere it was building.
    """
    fam = m.family
    gens = m.effective_generating_set()
    acts = [fam.right_multiplier(s) for s in gens]
    index = {s: i for i, s in enumerate(gens)}
    # reads[i]: the lists of S(k) that act i maps.  It never steps back
    # along the letter that found an element, and under a commutative
    # law it takes no list of a later letter.
    reads = []
    for i, s in enumerate(gens):
        back = index.get(fam.inverse(s))
        reads.append([j for j in range(i + 1 if fam.commutative else len(gens))
                      if j != back])
    ident = fam.identity()
    visited = {ident}
    before, frontier = [], [[ident]]
    batches = [[ident]] * len(acts)  # every act maps S(0)
    stored = 1
    for k in count(1):
        sphere = expand(acts, batches, visited, element_budget - stored)
        if sphere is None:
            f, n = sum(map(len, frontier)), len(acts)
            raise BudgetExceededError(
                f"element budget {element_budget} exhausted while "
                f"expanding radius {k}: {element_budget} elements "
                f"stored, frontier |S({k - 1})| = {f}, next sphere "
                f"estimate |S({k - 1})|*|S| = {f}*{n} = {f * n}",
                last_radius=k - 1)
        stored += sum(map(len, sphere))
        if m.symmetrize:
            # undirected graph: S(k+1) has no neighbour in S(k-1)
            visited.difference_update(chain.from_iterable(before))
            before = frontier
        yield sphere
        frontier = sphere
        batches = [chain.from_iterable(map(sphere.__getitem__, r))
                   for r in reads]


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
            sigma.append(sum(map(len, sphere)))
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
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    if element_budget <= 0:
        raise ArgumentError("element_budget must be positive")
    target = m.family.canonicalize(g)
    if target == m.family.identity():
        return 0
    for k, sphere in zip(range(1, kmax + 1), _spheres(m, element_budget)):
        if any(target in part for part in sphere):
            return k
        if not any(sphere):
            return None
    return None
