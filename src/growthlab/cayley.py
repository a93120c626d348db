"""Exact breadth-first enumeration of word-metric spheres and balls.

For a marked group (G, S) the word length of g is the least k with
g in (S u S^-1)^k.  ``_read_rule`` fixes the order of the generators'
acts and which lists of a sphere each act maps.  One private
generator, ``_walk``, expands the spheres S(1), S(2), ... frontier by
frontier under that rule, and ends with a finite group: every
element of S(k+1) is a neighbour of S(k), so once a sphere is empty so
is every later one.  ``enumerate_balls`` keeps their sizes, pads the
rest of its table with empty spheres once, and returns a
``BallTable``, which holds only the sphere sizes sigma(k) and reads
the radius and the ball sizes beta(k) off them; ``word_length``
searches the spheres for one element.  A free basis is counted on the
same rule, not searched (see below).

Each product is a neighbour g*s of a frontier element g by one element
s of the effective generating set.  ``_laws`` asks the family once per
s for an act precomputed for that s that maps a batch of elements to
their products g*s (see :mod:`growthlab.groups`): the family's one
group law, ``right_multiplier(s)``, except for ``UnitriangularGroup``,
whose ``packed`` hook acts on its elements packed into one int each.
A packing holds to a radius, and ``enumerate_balls`` and
``word_length`` search to radius min(kmax, element_budget): each
completed sphere stores one element at least, so no search completes
more radii than its budget holds elements.  A packing sized for a
radius far past the one reached would make every int thousands of
bits wide on wide markings, so ``_laws`` sizes them for radii near it,
and ``_spheres``, the one driver of every search, walks again on a
wider one once past each (under polynomial growth the walk to r is a
small share of the walk to 2r).  ``word_length`` packs its target at
each sphere, and a target past the bound of the kmax-ball is not in
it.  ``expand`` is the one frontier step: each act maps its whole
batch in one pass, and the images not yet seen are kept in that act's
list and then added to the seen set, stopping once they outgrow the
room left in the budget.  The membership tests, appends and inserts
run inside ``filterfalse``, ``list`` and ``set.update``, so no Python
code runs per product.  The product sets of
:func:`growthlab.analysis.dye_quantity_strict` are walked by the same
driver on the same laws, one step per set, with every act mapping the
whole set.

Each sphere S(k) is kept as one list per act i, holding the elements
that act found first, h = g*s_i with g in S(k-1).  The read rule gives
act i two ints: it maps the lists below end_i except back_i.  So the
search walks each element along one normal form of its geodesics:

* never step back: back_i is the act of s_i^-1 (None when there is
  none below end_i), since h*s_i^-1 = g is in S(k-1), already visited;
* commuting letters in order, by inverse pair: under a commutative law
  (``family.commutative``) let pair(i) be the first index of s_i or
  s_i^-1 in the effective generating set.  The acts run in pair order,
  each letter next to its inverse, and end_i = i + 1, so act i maps
  list j only when pair(j) < pair(i) or j = i.  By induction on k, the
  act that first finds h is in the least possible pair of a largest
  letter over h's geodesics.  Sort such a geodesic by pair; it ends in
  a letter s of that pair, and its prefix p = h*s^-1 lies in S(k-1).
  No geodesic of p uses s^-1, or h = p*s would be shorter than k.  So
  the act that first found p is in a lower pair than s, or it is s
  itself, and either way act s maps p's list.  Every act that forms h
  shows a geodesic of h whose largest letter is in that act's pair, and
  the acts run in pair order, so no act of a later pair finds h first.
  Under any other law end_i is the number of acts.

Neither rule drops an element: what is skipped is known or found by
another act.  S(0) = {e} is mapped by every act.

When the family vouches that the marking is a free basis
(``family.free_basis``, see :mod:`growthlab.groups`), every product the
search would form is a new element:

* a free group whose generators are single letters, symmetrized or
  as-given.  A word g in act j's list of S(k) ends in the letter s_j,
  and act i maps only the lists whose letter is not s_i^-1, so g*s_i is
  the reduced word g followed by s_i, of length k+1;
* a free abelian group whose generators, up to sign, each have a
  private coordinate.  They are independent, so every element has one
  sorted normal form, and its length is the sum of the absolute
  coefficients.  An element g in act j's list of S(k) has no letter in
  a pair above pair(j).  Act i maps it only when pair(j) < pair(i), or
  when j = i and g's letters in that pair are all s_i.  So g*s_i is
  g's normal form with one more s_i at its end, of length k+1.

In both cases dropping the last letter of g*s_i gives back g, so
distinct pairs (g, s_i) give distinct elements, none of them in an
earlier sphere.  So act i's list of S(k+1) holds exactly as many
elements as the lists it reads in S(k) hold together: with c_i(1) = 1
and P the prefix sums of c(k), c_i(k+1) = P(end_i) - c_{back_i}(k),
linear in the acts per radius, and sigma(k) is the sum of the c_i(k).
These are the counts of the normal-form automaton whose transfer
matrix is the read rule (Cannon, Geom. Dedicata 16, 1984; Epstein et
al., Word Processing in Groups, 1992, ch. 2).  ``enumerate_balls``
keeps them and forms no element and builds no act; the budget still
counts the whole ball, and refuses at the radius and with the message
of the search.  ``word_length`` still searches a free basis, with a
visited set.

The search's elements are their own keys: every family stores elements
in a canonical hashable form, and a packing is injective, so the
visited set holds the elements themselves, or their ints.  When the
marking is symmetrized the Cayley graph is undirected and every
neighbour of S(k) lies in S(k-1), S(k) or S(k+1), so once S(k+1) is
complete S(k-1) is dropped from the visited set, in one
``difference_update`` over all its lists (CPython may rebuild the
table after each such call, at four times its live entries, so one
call per list doubled the Z^3 table); the set then holds at most three
spheres.  As-given markings keep every element visited.  The element
budget counts the whole ball either way, and a table's rows too: an
exhausted group's table of kmax + 1 rows is refused past the budget,
with the table through its last nonempty radius, as an infinite
group's k-ball of at least k + 1 elements would be.  The enumeration
is deterministic, and the sphere sizes do not depend on any iteration
order.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from functools import partial
from itertools import accumulate, chain, count, filterfalse, islice

from .config import DEFAULT_ELEMENT_BUDGET, _shown
from .errors import ArgumentError, BudgetExceededError, Record
from .groups import MarkedGroup


class BallTable(Record):
    """Sphere sizes sigma(0..radius_max) of a marked group; the radius
    and the ball sizes beta(k) = sigma(0) + ... + sigma(k) are read off
    them."""

    __slots__ = ("sphere_sizes", "group_description")

    def __init__(self, sphere_sizes: tuple, group_description: str = ""):
        sphere_sizes = tuple(sphere_sizes)
        if sphere_sizes[:1] != (1,):
            raise ArgumentError("sphere of radius 0 must have size 1")
        if min(sphere_sizes) < 0:
            raise ArgumentError("sphere sizes must be nonnegative")
        if any(a == 0 < b for a, b in zip(sphere_sizes, sphere_sizes[1:])):
            # a Cayley graph never reaches past an empty sphere
            raise ArgumentError("a sphere cannot be nonempty after an empty one")
        super().__init__(sphere_sizes, group_description)

    @property
    def radius_max(self) -> int:
        return len(self.sphere_sizes) - 1

    @property
    def ball_sizes(self) -> tuple:
        return tuple(accumulate(self.sphere_sizes))

    def to_csv_lines(self) -> list[str]:
        return ["k,sigma,beta"] + [
            f"{k},{s},{b}" for k, (s, b) in
            enumerate(zip(self.sphere_sizes, self.ball_sizes))]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_description,
            "radius_max": str(self.radius_max),
            "sphere_sizes": [str(x) for x in self.sphere_sizes],
            "ball_sizes": [str(x) for x in self.ball_sizes],
        }


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
    room = min(room, sys.maxsize - 1)  # no list is longer: no bound past it
    for act, batch in zip(acts, batches):
        new = list(islice(filterfalse(seen.__contains__, act(batch)),
                          room + 1))
        seen.update(new)
        found.append(new)
        room -= len(new)
        if room < 0:
            return None
    return found


def _read_rule(m: MarkedGroup) -> tuple[list, list]:
    """The effective generators of ``m`` in act order, and the read rule:
    act i maps the lists j < end of S(k) except back, one pair per act.
    back is the act of s_i^-1 when it is below end, else None.  end is
    i + 1 under a commutative law, where the generators run pair by
    pair, each letter next to its inverse; else it is the number of acts.
    """
    fam = m.family
    gens = m.effective_generating_set()
    inverse = {s: fam.inverse(s) for s in gens}
    index = {s: i for i, s in enumerate(gens)}
    if fam.commutative:
        # each letter next to its inverse, pairs in order of first listing
        gens.sort(key=lambda s: min(index[s],
                                    index.get(inverse[s], index[s])))
        index = {s: i for i, s in enumerate(gens)}
    n, rule = len(gens), []
    for i, s in enumerate(gens):
        end = i + 1 if fam.commutative else n
        back = index.get(inverse[s], n)
        rule.append((end, back if back < end else None))
    return gens, rule


def _exhausted(element_budget: int, k: int, frontier: int,
               acts: int) -> BudgetExceededError:
    """The error the ball search raises when S(k) would outgrow the
    budget: it names the elements stored, the frontier |S(k-1)| being
    expanded and the bound |S(k-1)|*|S| on the sphere it was building."""
    return BudgetExceededError(
        f"element budget {element_budget} exhausted while "
        f"expanding radius {k}: {element_budget} elements "
        f"stored, frontier |S({k - 1})| = {frontier}, next sphere "
        f"estimate |S({k - 1})|*|S| = {frontier}*{acts} = "
        f"{frontier * acts}",
        last_radius=k - 1)


def _same(a):
    return a


def _laws(family, gens: list, radius: int):
    """Yield the laws (reach, acts, pack) a search up to ``radius``
    takes in turn: the acts of gens on the form the search stores, and
    the map of an element to it.  A ``packed`` hook
    (``UnitriangularGroup``) packs each element into one int, valid for
    products of at most reach elements of gens (None past that bound),
    for reaches 1, 2, 4, ..., then radius once it is at most four times
    the last, from the farthest whose identity packs into 64 bits (ints
    that narrow cost about the same at any radius).  Any other family's
    one law, by ``right_multiplier``, reaches radius."""
    packed = getattr(family, "packed", None)
    if packed is None:
        yield radius, [family.right_multiplier(s) for s in gens], _same
        return

    def farther(r):
        return radius if 4 * r >= radius else 2 * r
    reach = min(1, radius)
    acts, pack = packed(gens, reach)
    ident = family.identity()
    while reach < radius:
        wider = packed(gens, farther(reach))
        if wider[1](ident).bit_length() > 64:
            break
        reach, (acts, pack) = farther(reach), wider
    yield reach, acts, pack
    while reach < radius:
        reach = farther(reach)
        yield reach, *packed(gens, reach)


def _spheres(m: MarkedGroup, gens: list, radius: int, walk: Callable):
    """Yield the steps 1, 2, ... of a search of ``m`` up to ``radius``,
    each with the map of an element to the form the search stores, and
    return earlier when the walk does.  ``walk(acts, pack)`` yields one
    step per radius on one law of gens.  Past the reach of each of
    ``_laws``'s laws the search walks again from the start on the next,
    drawing nothing twice: a step past it may pass the packing's bound.
    """
    drawn = 0
    for reach, acts, pack in _laws(m.family, gens, radius):
        for step in islice(walk(acts, pack), drawn, reach):
            drawn += 1
            yield step, pack
        if drawn < reach:  # the walk ended before the law's reach
            return


def _walk(m: MarkedGroup, rule: list, element_budget: int, acts: list,
          pack: Callable):
    """The ball search's walk on one law: the spheres S(1), S(2), ...,
    each as one list per act (the elements that act found first), up to
    the first empty one, when a finite group is exhausted.  Raises
    ``_exhausted``'s BudgetExceededError, without a partial table, once
    the ball would outgrow ``element_budget`` elements."""
    ident = pack(m.family.identity())
    visited = {ident}
    before, frontier = [], [[ident]]
    batches = [[ident]] * len(acts)  # every act maps S(0)
    stored = 1
    for k in count(1):
        sphere = expand(acts, batches, visited, element_budget - stored)
        if sphere is None:
            raise _exhausted(element_budget, k, sum(map(len, frontier)),
                             len(acts))
        if not any(sphere):
            return
        stored += sum(map(len, sphere))
        if m.symmetrize:
            # undirected graph: S(k+1) has no neighbour in S(k-1)
            visited.difference_update(chain.from_iterable(before))
            before = frontier
        yield sphere
        frontier = sphere
        batches = [chain.from_iterable(sphere[:end] if back is None else
                                       sphere[:back] + sphere[back + 1:end])
                   for end, back in rule]


def _sphere_sizes(m: MarkedGroup, radius: int, element_budget: int):
    """Yield |S(1)|, |S(2)|, ... of ``m``, to be drawn up to S(radius):
    counted off the read rule when the family vouches that the marking
    is a free basis (see the module docstring), else searched.  Either
    way ``_exhausted``'s error is raised once the ball would outgrow
    ``element_budget`` elements."""
    gens, rule = _read_rule(m)
    if m.family.free_basis(gens):
        sizes = [1] * len(gens)  # every act maps S(0) = {e}
        stored = frontier = 1
        for k in count(1):
            sigma = sum(sizes)
            if stored + sigma > element_budget:
                raise _exhausted(element_budget, k, frontier, len(gens))
            stored += sigma
            yield sigma
            frontier = sigma
            prefix = [0, *accumulate(sizes)]  # prefix[e] sums lists j < e
            sizes = [prefix[end] - (0 if back is None else sizes[back])
                     for end, back in rule]
    else:
        walk = partial(_walk, m, rule, element_budget)
        for sphere, _ in _spheres(m, gens, radius, walk):
            yield sum(map(len, sphere))


def enumerate_balls(m: MarkedGroup, kmax: int,
                    element_budget: int = DEFAULT_ELEMENT_BUDGET) -> BallTable:
    """Exact sphere sizes sigma(0..kmax) of the marked group.  Once a
    finite group is exhausted the search ends, and the table's later
    spheres are empty.

    Raises BudgetExceededError when the ball would outgrow
    ``element_budget`` elements, or when an exhausted group's table
    would hold more than ``element_budget`` rows; the error carries the
    last completed radius and the partial table up to it.
    """
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    if element_budget <= 0:
        raise ArgumentError("element_budget must be positive")
    sigma = [1]
    try:
        # each completed sphere stores one element at least, so the
        # budget is exhausted before radius element_budget is complete
        radius = min(kmax, element_budget)
        sigma += islice(_sphere_sizes(m, radius, element_budget), radius)
        if len(sigma) <= kmax:  # exhausted: pad once with empty spheres
            if kmax + 1 > element_budget:
                raise BudgetExceededError(
                    f"a table of {_shown(kmax + 1)} rows exceeds the "
                    f"element budget {element_budget}: the group has no "
                    f"element past radius {len(sigma) - 1}",
                    last_radius=len(sigma) - 1)
            sigma += [0] * (kmax + 1 - len(sigma))
    except BudgetExceededError as exc:
        exc.partial = BallTable(sigma, m.describe())
        raise
    return BallTable(sigma, m.describe())


def word_length(m: MarkedGroup, g, kmax: int,
                element_budget: int = DEFAULT_ELEMENT_BUDGET) -> int | None:
    """Least k <= kmax with g in the k-ball, or None when g is not in
    it, found by the search, which ends with a finite group.  Family
    mismatch raises StructuralError.

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
    gens, rule = _read_rule(m)
    radius = min(kmax, element_budget)  # as in enumerate_balls
    packed = getattr(m.family, "packed", None)  # only a packing has a bound
    if radius == kmax and packed and packed(gens, kmax)[1](target) is None:
        return None  # past the bound of the kmax-ball, so not in it
    walk = partial(_walk, m, rule, element_budget)
    for k, (sphere, pack) in enumerate(_spheres(m, gens, radius, walk), 1):
        key = pack(target)  # None past the bound, so not in S(k)
        if any(key in part for part in sphere):
            return k
    return None
