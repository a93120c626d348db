"""Concrete group families with exact, canonical element representations.

Four families are supported:

* ``FreeAbelian(rank)``   -- elements are integer vectors, the group law
  is componentwise addition;
* ``FreeGroup(rank)``     -- elements are freely reduced words on the
  signed letters ``1..rank`` (``-2`` is the inverse of the second basis
  letter), each stored as one int in base B = 2*rank + 1 with the last
  letter least significant: letter l > 0 is the digit l and letter -l
  the digit rank + l, and the empty word is 0.  Every digit is nonzero,
  so distinct reduced words are distinct ints at any length.  Only
  ``FreeGroup`` knows this format; ``canonicalize`` takes letter
  sequences (or a word already in this form) and ``element_repr``
  prints them;
* ``MatrixGroup(dim)``    -- elements are integer matrices invertible over
  the integers, each stored as one flat row-major tuple of dim*dim
  ints.  Only ``MatrixGroup`` knows this format; ``canonicalize`` takes
  rows (dim sequences of dim ints) or the flat form, tells them apart
  by whether the first entry is a sequence, enforces determinant +-1
  and returns the flat form, and ``element_repr`` prints rows.
  Determinants and inverses come from the exact routines in
  :mod:`growthlab.linalg`, applied to the rows;
* ``PermutationGroup(degree)`` -- elements are image tuples on
  ``{1..degree}``.

Every element is stored in a canonical hashable form, so equality of
elements is equality in the group and an element is its own key in the
visited sets of ball enumeration.

Every family has one group law, ``right_multiplier(s)``.  It does the
work that depends on s alone once and returns a callable ``act`` that
maps a whole batch of elements: ``act(gs)`` takes an iterable of
elements and returns an iterable of the products g*s, in the order of
``gs``.  Ball enumeration builds one act per generator and passes it
each sphere whole, so the per-product work runs inside one expression
instead of one Python call per product; a single product is
``[gs] = act([g])``.  Vectors and matrices share one act,
``_column_act``: each entry of g*s is a short sum of integer multiples
of entries of g, so the act reads each entry it needs as a column of
the batch with ``itemgetter``, scales and adds whole columns with
``map`` in C, and zips the columns back into elements.  Entry i of a
vector g + s is column i shifted by s_i; entry (r, c) of a matrix g*s
is the sum of s[j][c] * g[r][j] over the nonzero s[j][c].  That act
reads ``gs`` once per column, so it makes a batch that is not a list
into one when called and needs a finite batch.  A one-letter word s
drops the last digit of g when it is the digit of s^-1 and appends s
otherwise, a longer word chains the acts of its letters, and a
permutation is a table lookup per point; these two acts are lazy and
read ``gs`` only as their output is read.

Each family also states ``commutative``, whether its law commutes for
every choice of elements: only ``FreeAbelian`` does.  Ball enumeration
then takes commuting letters in generator order.

A :class:`MarkedGroup` bundles a family with a finite generating set.
The generating set never contains the identity; ``symmetrize=True``
(the default) makes word length count both generators and their
inverses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain
from operator import add, itemgetter

from .errors import ConfigError, Record, StructuralError
from .linalg import det_exact, mat_inverse_exact

Element = tuple
# the group law by one element s: a batch of elements g -> their g*s in order
Act = Callable[[Iterable], Iterable]


def _as_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise StructuralError(f"{what} must be an integer, got {x!r}")
    return x


def _sequence(obj, what: str):
    """obj itself, refused unless it can be iterated over."""
    if not hasattr(obj, "__iter__"):
        raise StructuralError(f"{what} must be a sequence, got {obj!r}")
    return obj


# ---------------------------------------------------------------------------
# the column-read act (exact determinants and inverses come from linalg.py)
# ---------------------------------------------------------------------------

def _column_act(entries) -> Act:
    """The act of a law whose product g*s is read off columns of g.

    ``entries`` holds, for each entry of g*s in order, its terms and a
    function ``finish`` or None: the entry is finish(sum of x * get(g)
    over the terms (get, x)), or that sum when ``finish`` is None.
    """
    def column(gs, terms, finish):
        cols = [map(get, gs) if x == 1 else map(x.__mul__, map(get, gs))
                for get, x in terms]
        col = cols[0]
        for other in cols[1:]:
            col = map(add, col, other)
        return map(finish, col) if finish else col

    def act(gs: Iterable[Element]) -> Iterable[Element]:
        if not isinstance(gs, list):
            gs = list(gs)  # each column reads the batch once more
        return zip(*[column(gs, terms, finish) for terms, finish in entries])
    return act


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class FreeAbelian(Record):
    """Z^rank under addition; elements are integer vectors."""

    __slots__ = ("rank",)
    commutative = True

    def __init__(self, rank: int):
        if rank < 0:
            raise StructuralError("rank must be nonnegative")
        super().__init__(rank)

    def identity(self) -> Element:
        return (0,) * self.rank

    def canonicalize(self, obj) -> Element:
        vec = tuple(_as_int(x, "vector entry")
                    for x in _sequence(obj, "vector"))
        if len(vec) != self.rank:
            raise StructuralError(
                f"vector has length {len(vec)}, expected rank {self.rank}")
        return vec

    def right_multiplier(self, s: Element) -> Act:
        if not s:  # rank 0: no columns to read, and g*s is g
            return iter
        # entry i is column i, shifted by s_i where s_i is nonzero
        return _column_act([([(itemgetter(i), 1)], x.__add__ if x else None)
                            for i, x in enumerate(s)])

    def inverse(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def describe(self) -> str:
        return f"free-abelian rank {self.rank}"

    def element_repr(self, a: Element) -> str:
        return "(" + ", ".join(map(str, a)) + ")"


class FreeGroup(Record):
    """Free group on `rank` letters; elements are freely reduced words,
    each stored as one int whose base 2*rank + 1 digits spell the word
    (see the module docstring)."""

    __slots__ = ("rank",)
    commutative = False

    def __init__(self, rank: int):
        if rank < 1:
            raise StructuralError("free group rank must be at least 1")
        super().__init__(rank)

    def _digits(self, a: int) -> list[int]:
        """The digits of the word a, first letter first."""
        base = 2 * self.rank + 1
        out = []
        while a:
            a, d = divmod(a, base)
            out.append(d)
        out.reverse()
        return out

    def identity(self) -> int:
        return 0

    def canonicalize(self, obj) -> int:
        r = self.rank
        base = 2 * r + 1
        if isinstance(obj, int):  # already a word: read its letters back
            if _as_int(obj, "word") < 0:
                raise StructuralError(f"word {obj} is negative")
            # a zero digit reads as the letter 0, refused below
            obj = [d if d <= r else r - d for d in self._digits(obj)]
        out: list[int] = []
        for x in _sequence(obj, "word"):
            l = _as_int(x, "letter")
            if l == 0 or abs(l) > r:
                raise StructuralError(f"letter {l} outside +-1..+-{r}")
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        a = 0
        for l in out:
            a = a * base + (l if l > 0 else r - l)
        return a

    def right_multiplier(self, s: int) -> Act:
        r = self.rank
        base = 2 * r + 1
        if not 0 < s < base:
            # a longer word chains the acts of its letters, the empty
            # word does not act at all
            acts = [self.right_multiplier(d) for d in self._digits(s)]

            def act(gs: Iterable[int]) -> Iterable[int]:
                for letter in acts:
                    gs = letter(gs)
                return gs
            return act
        # g is reduced, so g*s cancels exactly when g ends in s^-1
        inv = s + r if s <= r else s - r
        return lambda gs: (g // base if g % base == inv else g * base + s
                           for g in gs)

    def inverse(self, a: int) -> int:
        r = self.rank
        return self.canonicalize([-d if d <= r else d - r
                                  for d in reversed(self._digits(a))])

    def describe(self) -> str:
        return f"free rank {self.rank}"

    def element_repr(self, a: int) -> str:
        if not a:
            return "e"
        r = self.rank
        return "*".join(f"x{d}" if d <= r else f"x{d - r}^-1"
                        for d in self._digits(a))


class MatrixGroup(Record):
    """Subgroup of GL(dim, Z) generated by explicit integer matrices;
    each element is one flat row-major tuple of dim*dim ints (see the
    module docstring)."""

    __slots__ = ("dim",)
    commutative = False

    def __init__(self, dim: int):
        if dim < 1:
            raise StructuralError("matrix dimension must be at least 1")
        super().__init__(dim)

    def _rows(self, a: Element) -> tuple:
        n = self.dim
        return tuple(a[i:i + n] for i in range(0, n * n, n))

    def identity(self) -> Element:
        n = self.dim
        return tuple(int(i == j) for i in range(n) for j in range(n))

    def canonicalize(self, obj) -> Element:
        n = self.dim
        obj = tuple(_sequence(obj, "matrix"))
        if obj and not hasattr(obj[0], "__iter__"):  # the flat form
            flat = tuple(_as_int(x, "matrix entry") for x in obj)
            if len(flat) != n * n:
                raise StructuralError(f"matrix is not {n}x{n}")
            rows = self._rows(flat)
        else:  # dim rows of dim entries
            rows = tuple(tuple(_as_int(x, "matrix entry")
                               for x in _sequence(row, "matrix row"))
                         for row in obj)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise StructuralError(f"matrix is not {n}x{n}")
            flat = tuple(chain.from_iterable(rows))
        d = det_exact(rows)
        if d not in (1, -1):
            raise StructuralError(f"matrix has determinant {d}, must be +-1")
        return flat

    def right_multiplier(self, s: Element) -> Act:
        # entry (r, c) is the sum of s[j][c] * g[r][j] over the nonzero
        # s[j][c]; an invertible s has one in every column
        n = self.dim
        return _column_act([
            ([(itemgetter(r + j), s[j * n + c]) for j in range(n)
              if s[j * n + c]], None)
            for r in range(0, n * n, n) for c in range(n)])

    def inverse(self, a: Element) -> Element:
        return tuple(chain.from_iterable(mat_inverse_exact(self._rows(a))))

    def describe(self) -> str:
        return f"matrix dim {self.dim}"

    def element_repr(self, a: Element) -> str:
        return "[" + "; ".join(" ".join(map(str, row))
                               for row in self._rows(a)) + "]"


class PermutationGroup(Record):
    """Subgroup of the symmetric group on {1..degree}; elements are image
    tuples, img[i-1] = image of i."""

    __slots__ = ("degree",)
    commutative = False

    def __init__(self, degree: int):
        if degree < 1:
            raise StructuralError("permutation degree must be at least 1")
        super().__init__(degree)

    def identity(self) -> Element:
        return tuple(range(1, self.degree + 1))

    def canonicalize(self, obj) -> Element:
        img = tuple(_as_int(x, "image") for x in _sequence(obj, "permutation"))
        if len(img) != self.degree or sorted(img) != list(range(1, self.degree + 1)):
            raise StructuralError(
                f"{img} is not a permutation of 1..{self.degree}")
        return img

    def right_multiplier(self, s: Element) -> Act:
        # g*s applies g first, then s
        image = ((0,) + s).__getitem__  # image(i) = s(i), points are 1-based
        return lambda gs: (tuple(map(image, g)) for g in gs)

    def inverse(self, a: Element) -> Element:
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v - 1] = i + 1
        return tuple(out)

    def describe(self) -> str:
        return f"permutation degree {self.degree}"

    def element_repr(self, a: Element) -> str:
        return "[" + " ".join(map(str, a)) + "]"


Family = FreeAbelian | FreeGroup | MatrixGroup | PermutationGroup


# ---------------------------------------------------------------------------
# marked groups
# ---------------------------------------------------------------------------

class MarkedGroup(Record):
    """A group family together with a finite generating set.

    Growth depends on the pair, not on the group alone, so every
    computation downstream takes a MarkedGroup.  Generators are stored in
    canonical form; the identity is rejected as a generator.
    """

    __slots__ = ("family", "generators", "symmetrize")

    def __init__(self, family: Family, generators: tuple = (),
                 symmetrize: bool = True):
        if not generators:
            raise ConfigError("generating set must be nonempty", field="generator")
        canon = []
        ident = family.identity()
        for g in generators:
            c = family.canonicalize(g)
            if c == ident:
                raise StructuralError("the identity may not be listed as a generator")
            canon.append(c)
        super().__init__(family, tuple(canon), symmetrize)

    def effective_generating_set(self) -> list:
        """Deduplicated generator list, closed under inversion when
        ``symmetrize`` is set; never contains the identity."""
        pool = list(self.generators)
        if self.symmetrize:
            pool += [self.family.inverse(g) for g in self.generators]
        return list(dict.fromkeys(pool))

    def describe(self) -> str:
        fam = self.family
        gens = ", ".join(fam.element_repr(g) for g in self.generators)
        sym = "symmetrized" if self.symmetrize else "as-given"
        return f"{fam.describe()}; S = {{{gens}}} ({sym})"


# ---------------------------------------------------------------------------
# stock constructions
# ---------------------------------------------------------------------------

def free_abelian_standard(n: int) -> MarkedGroup:
    """Z^n marked with the standard basis e_1..e_n (symmetrized)."""
    fam = FreeAbelian(n)
    gens = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return MarkedGroup(fam, gens)


def free_group_standard(n: int) -> MarkedGroup:
    """Free group F_n marked with its free basis (symmetrized)."""
    fam = FreeGroup(n)
    return MarkedGroup(fam, tuple((i,) for i in range(1, n + 1)))


def heisenberg_group() -> MarkedGroup:
    """Discrete Heisenberg group H_3(Z) with the two standard unipotent
    generators x = I + E12 and y = I + E23."""
    fam = MatrixGroup(3)
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    return MarkedGroup(fam, (x, y))


def symmetric_group_adjacent(degree: int) -> MarkedGroup:
    """Symmetric group S_degree marked with the adjacent transpositions
    (1 2), (2 3), ..., (degree-1 degree)."""
    fam = PermutationGroup(degree)
    gens = []
    for i in range(1, degree):
        img = list(range(1, degree + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        gens.append(tuple(img))
    return MarkedGroup(fam, tuple(gens))
