"""Concrete group families with exact, canonical element representations.

Five families are supported:

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
* ``UnitriangularGroup(dim)`` -- U_dim(Z), the upper unitriangular
  integer matrices, a ``MatrixGroup`` whose elements are their Mal'cev
  coordinates (Kargapolov & Merzljakov, Fundamentals of the Theory of
  Groups, 1979, sec. 17): the dim*(dim-1)/2 entries above the diagonal,
  row by row, as one tuple.  ``canonicalize`` takes rows, which must be
  upper unitriangular, or that tuple; an inverse is ``MatrixGroup``'s
  exact inverse read back into coordinates; ``describe`` and
  ``element_repr`` print what ``MatrixGroup`` prints.
  ``MatrixGroup.coordinates`` is the one test of the shape, and
  ``heisenberg_group`` and every ``matrix`` config whose generators
  pass it are searched in this family;
* ``PermutationGroup(degree)`` -- elements are image tuples on
  ``{1..degree}``.

Every ``canonicalize`` reads its entries with
:func:`growthlab.linalg.ints`, so a float, a bool or a string is
refused with a ``StructuralError`` that names the entry.

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
``_column_act``: each entry of g*s is a constant plus a short sum of
integer multiples of entries of g, read as columns of the batch with
``itemgetter`` and shifted, scaled, added and zipped in C.  The act
stores the terms and shift of each entry it changes and makes its
getters when it runs.  A vector g + s shifts entry i by each nonzero
s_i; entry (r, c) of a matrix g*s is the sum of s[j][c] * g[r][j] over
the nonzero s[j][c]; and coordinate (r, c) of a unitriangular g*s is
g_rc + s_rc plus g_rj * s_jc over the nonzero s_jc, r < j < c, so the
act of H_3(Z)'s x reads three columns and changes one, where the flat
act reads nine.  That act reads ``gs`` once per column, so it
makes a batch that is not a list into one when called and needs a
finite batch.  A one-letter word s drops the last digit of g when it is
the digit of s^-1 and appends s otherwise, a longer word chains the
acts of its letters, and a permutation is a table lookup per point;
these two acts are lazy and read ``gs`` only as their output is read.

Each family also states ``commutative``, whether its law commutes for
every choice of elements: only ``FreeAbelian`` does (U_2(Z) is Z, but
like every matrix family it states False and keeps the general read
rule).  Ball enumeration
then takes commuting letters in order, each next to its inverse.  And
each states ``free_basis(gens)``, whether it vouches that the distinct
generators gens are a free basis of what they generate, up to sign: then
every element has one normal form, every product the ball search would
form is new, and ``enumerate_balls`` counts the spheres instead of
searching them (see :mod:`growthlab.cayley`).
Two families vouch:

* ``FreeGroup``, when every generator is one letter;
* ``FreeAbelian``, when the distinct generators, taken up to sign, each
  have a coordinate where every other one is zero.  Such vectors are
  independent.  The test is linear in the number of entries, where a
  rank by elimination would take cubic time at the ranks the budget
  admits.  Independent vectors without such coordinates, like (1, 1)
  and (1, -1), are not vouched for and keep the visited set.

A :class:`MarkedGroup` bundles a family with a finite generating set.
The generating set never contains the identity; ``symmetrize=True``
(the default) makes word length count both generators and their
inverses.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from itertools import chain, compress
from operator import add, itemgetter, neg

from .errors import ConfigError, Record, StructuralError
from .linalg import as_int, det_exact, ints, mat_inverse_exact, sequence

Element = tuple
# the group law by one element s: a batch of elements g -> their g*s in order
Act = Callable[[Iterable], Iterable]


# ---------------------------------------------------------------------------
# the column-read act (exact determinants and inverses come from linalg.py)
# ---------------------------------------------------------------------------

def _column_act(width: int, changed: dict) -> Act:
    """The act of a law whose product g*s is read off columns of g.

    Entry i of g*s, for i < width, is entry i of g, unless
    ``changed[i] = (terms, shift)``: then it is shift plus the sum of
    x * g[j] over the terms (j, x).
    """
    def column(gs, i):
        if i not in changed:
            return map(itemgetter(i), gs)
        terms, shift = changed[i]
        cols = [map(itemgetter(j), gs) if x == 1
                else map(x.__mul__, map(itemgetter(j), gs))
                for j, x in terms]
        col = cols[0]
        for other in cols[1:]:
            col = map(add, col, other)
        return map(shift.__add__, col) if shift else col

    def act(gs: Iterable[Element]) -> Iterable[Element]:
        if not isinstance(gs, list):
            gs = list(gs)  # each column reads the batch once more
        return zip(*[column(gs, i) for i in range(width)])
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

    def free_basis(self, gens) -> bool:
        """Whether the distinct vectors gens, taken up to sign, each have a
        coordinate where every other one is zero.  Such vectors are
        independent; the test is linear in the number of entries."""
        classes = {max(s, self.inverse(s)) for s in gens}  # one per sign
        supports = [list(compress(range(self.rank), v)) for v in classes]
        users = Counter(chain.from_iterable(supports))
        return all(any(users[c] == 1 for c in sup) for sup in supports)

    def identity(self) -> Element:
        return (0,) * self.rank

    def canonicalize(self, obj) -> Element:
        vec = ints(obj, "vector", "vector entry")
        if len(vec) != self.rank:
            raise StructuralError(
                f"vector has length {len(vec)}, expected rank {self.rank}")
        return vec

    def right_multiplier(self, s: Element) -> Act:
        if not s:  # rank 0: no columns to read, and g*s is g
            return iter
        # entry i is column i, shifted by s_i where s_i is nonzero
        return _column_act(self.rank, {i: (((i, 1),), x)
                                       for i, x in enumerate(s) if x})

    def inverse(self, a: Element) -> Element:
        return tuple(map(neg, a))

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

    def free_basis(self, gens) -> bool:
        """Whether the distinct words gens are each one letter, one digit
        0 < s < 2*rank + 1; the search then forms no word twice (see
        :mod:`growthlab.cayley`)."""
        return all(0 < s <= 2 * self.rank for s in gens)

    def identity(self) -> int:
        return 0

    def canonicalize(self, obj) -> int:
        r = self.rank
        base = 2 * r + 1
        if isinstance(obj, int):  # already a word: read its letters back
            if as_int(obj, "word") < 0:
                raise StructuralError(f"word {obj} is negative")
            # a zero digit reads as the letter 0, refused below
            obj = [d if d <= r else r - d for d in self._digits(obj)]
        out: list[int] = []
        for l in ints(obj, "word", "letter"):
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

    def free_basis(self, gens) -> bool:
        return False

    def identity(self) -> Element:
        n = self.dim
        return tuple(int(i == j) for i in range(n) for j in range(n))

    def _read_rows(self, obj: tuple) -> Element:
        """dim rows of dim ints, as one flat row-major tuple."""
        n = self.dim
        rows = tuple(ints(row, "matrix row", "matrix entry") for row in obj)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructuralError(f"matrix is not {n}x{n}")
        return tuple(chain.from_iterable(rows))

    def canonicalize(self, obj) -> Element:
        n = self.dim
        obj = tuple(sequence(obj, "matrix"))
        if obj and not hasattr(obj[0], "__iter__"):  # the flat form
            flat = ints(obj, "matrix", "matrix entry")
            if len(flat) != n * n:
                raise StructuralError(f"matrix is not {n}x{n}")
        else:
            flat = self._read_rows(obj)
        d = det_exact(self._rows(flat))
        if d not in (1, -1):
            raise StructuralError(f"matrix has determinant {d}, must be +-1")
        return flat

    def coordinates(self, a: Element) -> Element | None:
        """The entries of the flat matrix a above its diagonal, row by row,
        when a is upper unitriangular, else None."""
        n = self.dim
        if any(a[r * n + c] != (r == c)
               for r in range(n) for c in range(r + 1)):
            return None
        return tuple(a[r * n + c] for r in range(n) for c in range(r + 1, n))

    def right_multiplier(self, s: Element) -> Act:
        # entry (r, c) is the sum of s[j][c] * g[r][j] over the nonzero
        # s[j][c]; an invertible s has one in every column
        n = self.dim
        return _column_act(n * n, {
            r + c: ([(r + j, s[j * n + c]) for j in range(n)
                     if s[j * n + c]], 0)
            for r in range(0, n * n, n) for c in range(n)})

    def inverse(self, a: Element) -> Element:
        return tuple(chain.from_iterable(mat_inverse_exact(self._rows(a))))

    def describe(self) -> str:
        return f"matrix dim {self.dim}"

    def element_repr(self, a: Element) -> str:
        return "[" + "; ".join(" ".join(map(str, row))
                               for row in self._rows(a)) + "]"


class UnitriangularGroup(MatrixGroup):
    """U_dim(Z), the upper unitriangular integer matrices; each element is
    its Mal'cev coordinates, the dim*(dim-1)/2 entries above the diagonal
    row by row (see the module docstring)."""

    __slots__ = ()

    def _cells(self) -> list:
        """The positions (r, c) above the diagonal, in coordinate order."""
        n = self.dim
        return [(r, c) for r in range(n) for c in range(r + 1, n)]

    def _rows(self, a: Element) -> tuple:
        n = self.dim
        at = dict(zip(self._cells(), a))
        return tuple(tuple(at.get((r, c), int(r == c)) for c in range(n))
                     for r in range(n))

    def identity(self) -> Element:
        return (0,) * (self.dim * (self.dim - 1) // 2)

    def canonicalize(self, obj) -> Element:
        obj = tuple(sequence(obj, "matrix"))
        if obj and hasattr(obj[0], "__iter__"):  # dim rows of dim entries
            a = self.coordinates(self._read_rows(obj))
            if a is None:
                raise StructuralError("matrix is not upper unitriangular")
            return a
        a = ints(obj, "matrix", "matrix entry")
        width = len(self.identity())
        if len(a) != width:
            raise StructuralError(f"U_{self.dim} element has {width} "
                                  f"coordinates, got {len(a)}")
        return a

    def right_multiplier(self, s: Element) -> Act:
        if not s:  # dim 1: no columns to read, and g*s is g
            return iter
        # entry (r, c) of g*s is g_rc + s_rc plus g_rj * s_jc over the
        # nonzero s_jc, r < j < c; entries s leaves alone are not stored
        cells = self._cells()
        at = {cell: i for i, cell in enumerate(cells)}
        entry = dict(zip(cells, s))
        changed = {}
        for i, (r, c) in enumerate(cells):
            terms = [(at[r, j], entry[j, c]) for j in range(r + 1, c)
                     if entry[j, c]]
            if terms or entry[r, c]:
                changed[i] = ([(i, 1)] + terms, entry[r, c])
        return _column_act(len(cells), changed)

    def inverse(self, a: Element) -> Element:
        return self.coordinates(super().inverse(a))


class PermutationGroup(Record):
    """Subgroup of the symmetric group on {1..degree}; elements are image
    tuples, img[i-1] = image of i."""

    __slots__ = ("degree",)
    commutative = False

    def __init__(self, degree: int):
        if degree < 1:
            raise StructuralError("permutation degree must be at least 1")
        super().__init__(degree)

    def free_basis(self, gens) -> bool:
        return False

    def identity(self) -> Element:
        return tuple(range(1, self.degree + 1))

    def canonicalize(self, obj) -> Element:
        img = ints(obj, "permutation", "image")
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
    computation downstream takes a MarkedGroup.  Generators, from any
    iterable, are canonicalized once each and stored so; the identity is
    refused, and a refused generator's position is the error's ``index``.
    """

    __slots__ = ("family", "generators", "symmetrize")

    def __init__(self, family: Family, generators=(), symmetrize: bool = True):
        canon, ident = [], None
        for i, g in enumerate(generators):
            try:
                c = family.canonicalize(g)
            except StructuralError as exc:
                raise StructuralError(str(exc), i) from None
            if ident is None:
                # built once a generator of its size exists, so a size
                # no row matches is refused by the row, not allocated
                ident = family.identity()
            if c == ident:
                raise StructuralError("the identity may not be listed as a generator", i)
            canon.append(c)
        if not canon:
            raise ConfigError("generating set must be nonempty", field="generator")
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

def free_abelian_standard(n: int, symmetrize: bool = True) -> MarkedGroup:
    """Z^n marked with the standard basis e_1..e_n."""
    fam = FreeAbelian(n)
    gens = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return MarkedGroup(fam, gens, symmetrize)


def free_group_standard(n: int, symmetrize: bool = True) -> MarkedGroup:
    """Free group F_n marked with its free basis."""
    fam = FreeGroup(n)
    return MarkedGroup(fam, tuple((i,) for i in range(1, n + 1)), symmetrize)


def heisenberg_group(symmetrize: bool = True) -> MarkedGroup:
    """Discrete Heisenberg group H_3(Z) with the two standard unipotent
    generators x = I + E12 and y = I + E23, in Mal'cev coordinates."""
    fam = UnitriangularGroup(3)
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    return MarkedGroup(fam, (x, y), symmetrize)


def symmetric_group_adjacent(degree: int,
                             symmetrize: bool = True) -> MarkedGroup:
    """Symmetric group S_degree marked with the adjacent transpositions
    (1 2), (2 3), ..., (degree-1 degree)."""
    fam = PermutationGroup(degree)
    gens = []
    for i in range(1, degree):
        img = list(range(1, degree + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        gens.append(tuple(img))
    return MarkedGroup(fam, tuple(gens), symmetrize)
