"""Concrete group families with exact, canonical element representations.

Four families are supported:

* ``FreeAbelian(rank)``   -- elements are integer vectors, the group law
  is componentwise addition;
* ``FreeGroup(rank)``     -- elements are freely reduced words encoded as
  tuples of nonzero signed letters (``2`` means the second basis letter,
  ``-2`` its inverse);
* ``MatrixGroup(dim)``    -- elements are integer matrices invertible over
  the integers (determinant +-1 is enforced for generators; determinants
  and inverses come from the exact routines in :mod:`growthlab.linalg`);
* ``PermutationGroup(degree)`` -- elements are image tuples on
  ``{1..degree}``.

Every element is stored in a canonical hashable form, so equality of
canonical forms is equality in the group; ``canonical_key`` returns a
compact byte encoding used by ball enumeration as the visited-set key.

A :class:`MarkedGroup` bundles a family with a finite generating set.
The generating set never contains the identity; ``symmetrize=True``
(the default) makes word length count both generators and their
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, StructuralError
from .linalg import det_exact, mat_inverse_exact

Element = tuple


def _as_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise StructuralError(f"{what} must be an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# element helpers (exact determinants and inverses come from linalg.py)
# ---------------------------------------------------------------------------

def mat_mul(a: Element, b: Element) -> Element:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, colv)) for colv in bt) for row in a
    )


def _reduce_word(letters) -> Element:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeAbelian:
    """Z^rank under addition; elements are integer vectors."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise StructuralError("rank must be nonnegative")

    def identity(self) -> Element:
        return (0,) * self.rank

    def canonicalize(self, obj) -> Element:
        vec = tuple(_as_int(x, "vector entry") for x in obj)
        if len(vec) != self.rank:
            raise StructuralError(
                f"vector has length {len(vec)}, expected rank {self.rank}")
        return vec

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def canonical_key(self, a: Element) -> bytes:
        return repr(a).encode()

    def describe(self) -> str:
        return f"free-abelian rank {self.rank}"

    def element_repr(self, a: Element) -> str:
        return "(" + ", ".join(map(str, a)) + ")"


@dataclass(frozen=True)
class FreeGroup:
    """Free group on `rank` letters; elements are freely reduced words."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise StructuralError("free group rank must be at least 1")

    def identity(self) -> Element:
        return ()

    def canonicalize(self, obj) -> Element:
        letters = [_as_int(x, "letter") for x in obj]
        for l in letters:
            if l == 0 or abs(l) > self.rank:
                raise StructuralError(
                    f"letter {l} outside +-1..+-{self.rank}")
        return _reduce_word(letters)

    def multiply(self, a: Element, b: Element) -> Element:
        # a and b are already reduced; cancellation can only happen at
        # the junction, which the stack pass handles in one sweep.
        return _reduce_word(a + b)

    def inverse(self, a: Element) -> Element:
        return tuple(-l for l in reversed(a))

    def canonical_key(self, a: Element) -> bytes:
        if self.rank <= 120:
            return bytes(l + 128 for l in a)
        return repr(a).encode()

    def describe(self) -> str:
        return f"free rank {self.rank}"

    def element_repr(self, a: Element) -> str:
        if not a:
            return "e"
        parts = []
        for l in a:
            parts.append(f"x{l}" if l > 0 else f"x{-l}^-1")
        return "*".join(parts)


@dataclass(frozen=True)
class MatrixGroup:
    """Subgroup of GL(dim, Z) generated by explicit integer matrices."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise StructuralError("matrix dimension must be at least 1")

    def identity(self) -> Element:
        return tuple(
            tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)
        )

    def canonicalize(self, obj) -> Element:
        rows = tuple(tuple(_as_int(x, "matrix entry") for x in row) for row in obj)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise StructuralError(f"matrix is not {self.dim}x{self.dim}")
        return rows

    def validate_generator(self, a: Element) -> Element:
        d = det_exact(a)
        if d not in (1, -1):
            raise StructuralError(
                f"generator matrix has determinant {d}, must be +-1")
        return a

    def multiply(self, a: Element, b: Element) -> Element:
        return mat_mul(a, b)

    def inverse(self, a: Element) -> Element:
        return mat_inverse_exact(a)

    def canonical_key(self, a: Element) -> bytes:
        return repr(a).encode()

    def describe(self) -> str:
        return f"matrix dim {self.dim}"

    def element_repr(self, a: Element) -> str:
        return "[" + "; ".join(" ".join(map(str, row)) for row in a) + "]"


@dataclass(frozen=True)
class PermutationGroup:
    """Subgroup of the symmetric group on {1..degree}; elements are image
    tuples, img[i-1] = image of i."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise StructuralError("permutation degree must be at least 1")

    def identity(self) -> Element:
        return tuple(range(1, self.degree + 1))

    def canonicalize(self, obj) -> Element:
        img = tuple(_as_int(x, "image") for x in obj)
        if len(img) != self.degree or sorted(img) != list(range(1, self.degree + 1)):
            raise StructuralError(
                f"{img} is not a permutation of 1..{self.degree}")
        return img

    def multiply(self, a: Element, b: Element) -> Element:
        # apply a first, then b
        return tuple(b[a[i] - 1] for i in range(self.degree))

    def inverse(self, a: Element) -> Element:
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v - 1] = i + 1
        return tuple(out)

    def canonical_key(self, a: Element) -> bytes:
        if self.degree <= 255:
            return bytes(a)
        return repr(a).encode()

    def describe(self) -> str:
        return f"permutation degree {self.degree}"

    def element_repr(self, a: Element) -> str:
        return "[" + " ".join(map(str, a)) + "]"


Family = FreeAbelian | FreeGroup | MatrixGroup | PermutationGroup


# ---------------------------------------------------------------------------
# marked groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkedGroup:
    """A group family together with a finite generating set.

    Growth depends on the pair, not on the group alone, so every
    computation downstream takes a MarkedGroup.  Generators are stored in
    canonical form; the identity is rejected as a generator.
    """

    family: Family
    generators: tuple = field(default=())
    symmetrize: bool = True

    def __post_init__(self):
        if not self.generators:
            raise ConfigError("generating set must be nonempty", field="generator")
        fam = self.family
        canon = []
        ident = fam.identity()
        for g in self.generators:
            c = fam.canonicalize(g)
            if c == ident:
                raise StructuralError("the identity may not be listed as a generator")
            if isinstance(fam, MatrixGroup):
                fam.validate_generator(c)
            canon.append(c)
        object.__setattr__(self, "generators", tuple(canon))

    def effective_generating_set(self) -> list:
        """Deduplicated generator list, closed under inversion when
        ``symmetrize`` is set; never contains the identity."""
        fam = self.family
        out: list = []
        seen = set()
        pool = list(self.generators)
        if self.symmetrize:
            pool += [fam.inverse(g) for g in self.generators]
        for g in pool:
            k = fam.canonical_key(g)
            if k not in seen:
                seen.add(k)
                out.append(g)
        return out

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
