"""Shared config grammar for all CLI commands.

A config document is a plain-text list of `key = value` lines.  `#`
starts a comment (whole line or trailing), blank lines are ignored,
keys are lowercase kebab-case.  Some keys may repeat to build up a
table row by row (`generator`, `vertex`, `basis`, `gram`).  Matrix
values pack rows into one line with `;` between rows:

    family = matrix
    dim = 3
    generator = 1 1 0 ; 0 1 0 ; 0 0 1
    generator = 1 0 0 ; 0 1 1 ; 0 0 1

Inline command-line flags override file values: a key given inline
drops every file entry for it, so a repeatable key is replaced as a
block.  A single-valued key given twice in a file is refused.  A
document remembers which keys the job looked up, and `refuse_unread`
refuses the first entry it never read, so a key is accepted exactly
when the job reads it.  Every diagnostic carries the offending line
and field so a malformed document never surfaces as a traceback.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import ConfigError, Record, StructuralError

if TYPE_CHECKING:
    from .ehrhart import LatticePolytope
    from .groups import MarkedGroup
    from .theta import IntegralLattice

# The kernels are imported by the builders that use them, so a command
# loads only its own.  The defaults and choices below are read by the
# kernels and the CLI parser alike without loading any kernel.

# the element budget when no `budget` key is given
DEFAULT_ELEMENT_BUDGET = 10_000_000

# significant digits of every decimal growthlab shows
DIGITS = 50

# the two values of `dye-convention`, the first the default
DYE_IDENTITY_CONVENTION = "identity-in-F"
DYE_AS_GIVEN_CONVENTION = "as-given"

_KEY_RE = re.compile(r"^[a-z][a-z0-9-]*$")


class ConfigEntry(Record):
    __slots__ = ("line", "key", "value")  # line is None for a flag's entry


class ConfigDocument(Record):
    __slots__ = ("entries", "read")

    def __init__(self, entries: tuple):
        # read: every key looked up through get or get_all, not compared
        super().__init__(entries, set())

    def _values(self) -> tuple:
        return (self.entries,)

    def get(self, key: str) -> ConfigEntry | None:
        """The entry for a single-valued key, or None; a key given twice
        is refused at its second line."""
        self.read.add(key)
        found = [e for e in self.entries if e.key == key]
        if len(found) > 1:
            raise ConfigError("this key takes one value but is given "
                              "again", line=found[1].line, field=key)
        return found[0] if found else None

    def get_all(self, key: str) -> list:
        self.read.add(key)
        return [e for e in self.entries if e.key == key]

    def refuse_unread(self, command: str) -> None:
        """Refuse the first entry whose key was never read, so no key is
        echoed as a job option that the job ignored."""
        for e in self.entries:
            if e.key not in self.read:
                raise ConfigError(f"this {command} job does not read "
                                  "this key", line=e.line, field=e.key)

    def keys(self) -> set:
        return {e.key for e in self.entries}

    def override(self, single=None, multi=None) -> "ConfigDocument":
        """Apply command-line values on top of this document.

        `single` maps key -> value (ignored when the value is None);
        `multi` maps key -> list of values (ignored when empty).  Every
        file entry for a key given inline is dropped, and the inline
        values follow the remaining entries, `multi` ones first.
        """
        inline = {key: values for key, values in (multi or {}).items()
                  if values}
        inline.update((key, [value]) for key, value in (single or {}).items()
                      if value is not None)
        entries = [e for e in self.entries if e.key not in inline]
        entries.extend(ConfigEntry(None, key, str(v))
                       for key, values in inline.items() for v in values)
        return ConfigDocument(tuple(entries))


def parse_config_text(text: str) -> ConfigDocument:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key {key!r}", line=lineno)
        if not value:
            raise ConfigError("empty value", line=lineno, field=key)
        entries.append(ConfigEntry(lineno, key, value))
    return ConfigDocument(tuple(entries))


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 (byte {exc.start})",
                          line=data.count(b"\n", 0, exc.start) + 1)
    return parse_config_text(text)


def empty_document() -> ConfigDocument:
    return ConfigDocument(())


# ---------------------------------------------------------------------------
# typed access
# ---------------------------------------------------------------------------

def require(doc: ConfigDocument, key: str) -> ConfigEntry:
    entry = doc.get(key)
    if entry is None:
        raise ConfigError("missing required key", field=key)
    return entry


def get_int(doc, key, default=None, minimum=None) -> int | None:
    entry = doc.get(key)
    if entry is None:
        if default is None:
            return None
        value = default
    else:
        try:
            value = int(entry.value)
        except ValueError:
            raise ConfigError(f"expected an integer, got {entry.value!r}",
                              line=entry.line, field=key)
    if minimum is not None and value < minimum:
        line = entry.line if entry is not None else None
        raise ConfigError(f"value must be at least {minimum}",
                          line=line, field=key)
    return value


def require_int(doc, key, minimum=None) -> int:
    require(doc, key)
    return get_int(doc, key, minimum=minimum)


def get_bool(doc, key, default: bool) -> bool:
    entry = doc.get(key)
    if entry is None:
        return default
    lowered = entry.value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {entry.value!r}",
                      line=entry.line, field=key)


def get_choice(doc, key, choices, default=None) -> str | None:
    entry = doc.get(key)
    if entry is None:
        return default
    value = {c.lower(): c for c in choices}.get(entry.value.lower())
    if value is None:
        raise ConfigError(
            f"unknown value {entry.value!r} (choices: {', '.join(sorted(choices))})",
            line=entry.line, field=key)
    return value


def _int_list(entry: ConfigEntry) -> list:
    parts = entry.value.replace(",", " ").split()
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ConfigError(f"expected integers, got {p!r}",
                              line=entry.line, field=entry.key)
    return out


def _int_rows(entry: ConfigEntry) -> list:
    rows = []
    for chunk in entry.value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigError("empty matrix row", line=entry.line,
                              field=entry.key)
        rows.append(_int_list(ConfigEntry(entry.line, entry.key, chunk)))
    return rows


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

def get_budget(doc) -> int:
    """The element budget: the `budget` key, or the ball-search default."""
    return get_int(doc, "budget", default=DEFAULT_ELEMENT_BUDGET, minimum=1)


def refuse_over_budget(doc, key: str, cost: int, what: str) -> None:
    """Refuse work of `cost` budget units, before any of it is done, as
    a config error naming `key` and its line; `what` says what the cost
    counts and carries the verb, as in "a table of 5 entries exceeds".
    A key given on several lines is named at its first."""
    budget = get_budget(doc)
    if cost > budget:
        entries = doc.get_all(key)
        raise ConfigError(f"{what} the budget of {budget}",
                          line=entries[0].line if entries else None,
                          field=key)


# families that take `generator` rows: the name of the family class in
# `groups`, the key that sizes it, and the parser of one row
_CUSTOM_FAMILIES = {
    "free-abelian": ("FreeAbelian", "rank", _int_list),
    "free": ("FreeGroup", "rank", _int_list),
    "matrix": ("MatrixGroup", "dim", _int_rows),
    "permutation": ("PermutationGroup", "degree", _int_list),
}
GROUP_FAMILIES = frozenset(_CUSTOM_FAMILIES) | {"heisenberg", "symmetric"}


def build_marked_group(doc: ConfigDocument) -> MarkedGroup:
    """Construct a marked group from a config document.  Each `generator`
    row goes through its family's own canonicalize; without rows a
    family gets its stock generators, where it has any.  `symmetrize`
    applies to every family."""
    from . import groups

    family = get_choice(doc, "family", GROUP_FAMILIES)
    if family is None:
        raise ConfigError("missing required key", field="family")
    symmetrize = get_bool(doc, "symmetrize", True)
    rows = size = None
    if family in _CUSTOM_FAMILIES:
        kind, size_key, parse = _CUSTOM_FAMILIES[family]
        size = require_int(doc, size_key, minimum=1)
        rows = doc.get_all("generator")
    if not rows:
        stock = _stock_marking(doc, family, size)
        if stock.symmetrize == symmetrize:
            return stock
        return groups.MarkedGroup(stock.family, stock.generators, symmetrize)
    fam, gens = getattr(groups, kind)(size), []
    for e in rows:
        try:
            g = fam.canonicalize(parse(e))
        except StructuralError as exc:
            raise ConfigError(str(exc), line=e.line, field="generator")
        if g == fam.identity():
            raise ConfigError("the identity may not be listed as a generator",
                              line=e.line, field="generator")
        gens.append(g)
    return groups.MarkedGroup(fam, tuple(gens), symmetrize)


def _stock_marking(doc, family: str, rank: int | None) -> MarkedGroup:
    from . import groups

    if family == "heisenberg":
        return groups.heisenberg_group()
    if family == "symmetric":
        # checked first: for a huge degree the stock generators would
        # never finish, each being a tuple of degree points
        degree = require_int(doc, "degree", minimum=2)
        entries = (degree - 1) * degree
        refuse_over_budget(doc, "degree", entries, f"the {entries} entries "
                           f"of the {degree - 1} stock generators exceed")
        return groups.symmetric_group_adjacent(degree)
    if family in ("matrix", "permutation"):
        raise ConfigError(f"{family} groups need explicit generators",
                          field="generator")
    # checked first: for a huge rank the stock generators would never
    # finish.  A free generator is one int, a free-abelian one rank ints
    if family == "free":
        refuse_over_budget(doc, "rank", 2 * rank, f"the {2 * rank} stock "
                           "generators and inverses exceed")
        return groups.free_group_standard(rank)
    entries = rank * rank
    refuse_over_budget(doc, "rank", entries, f"the {entries} entries of "
                       f"the {rank} stock generators exceed")
    return groups.free_abelian_standard(rank)


POLYTOPE_FAMILIES = frozenset({"cross", "root", "custom"})


def build_polytope(doc: ConfigDocument) -> LatticePolytope:
    """Construct a lattice polytope from a config document: either one
    of the stock families (`polytope = cross|root` with `n = ...`), whose
    V vertices of `ambient` entries each count against the budget before
    the build, or a custom vertex list with optional lattice basis rows."""
    from . import ehrhart

    kind = get_choice(doc, "polytope", POLYTOPE_FAMILIES, default="custom")
    if kind != "custom":
        n = require_int(doc, "n", minimum=1)
        vertices, ambient = ((2 * n, n) if kind == "cross"
                             else (n * (n + 1), n + 1))
        entries = vertices * ambient
        refuse_over_budget(doc, "n", entries, f"the {entries} entries of "
                           f"the {vertices} stock vertices exceed")
        build = (ehrhart.cross_polytope if kind == "cross"
                 else ehrhart.root_polytope)
        return build(n)
    ambient = require_int(doc, "ambient-dim", minimum=1)
    vertex_entries = doc.get_all("vertex")
    if not vertex_entries:
        raise ConfigError("custom polytopes need vertex rows", field="vertex")
    vertices = []
    for e in vertex_entries:
        vec = _int_list(e)
        if len(vec) != ambient:
            raise ConfigError(f"vertex must have {ambient} coordinates",
                              line=e.line, field="vertex")
        vertices.append(tuple(vec))
    basis_entries = doc.get_all("basis")
    basis = None
    if basis_entries:
        basis = []
        for e in basis_entries:
            row = _int_list(e)
            if len(row) != ambient:
                raise ConfigError(f"basis row must have {ambient} coordinates",
                                  line=e.line, field="basis")
            basis.append(tuple(row))
    return ehrhart.LatticePolytope.make(ambient, vertices, basis)


def build_lattice(doc: ConfigDocument) -> IntegralLattice:
    """Construct an integral lattice: explicit `gram` rows, or `rank`
    alone for the standard Z^rank identity form.  The lattice and the
    theta descent each eliminate on the gram matrix, so its rank^3
    steps count against the budget before either runs."""
    from . import theta

    gram_entries = doc.get_all("gram")
    if gram_entries:
        rows = [_int_list(e) for e in gram_entries]
        rank, key = len(rows), "gram"
        for e, row in zip(gram_entries, rows):
            if len(row) != rank:
                raise ConfigError(
                    f"gram matrix must be square ({rank} rows)",
                    line=e.line, field="gram")
    else:
        rank, key = require_int(doc, "rank", minimum=1), "rank"
    steps = rank ** 3
    refuse_over_budget(doc, key, steps, f"the {steps} elimination steps "
                       f"of a rank {rank} gram matrix exceed")
    if not gram_entries:
        rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    try:
        return theta.IntegralLattice.make(rows)
    except StructuralError as exc:  # only given rows can fail
        raise ConfigError(str(exc), line=gram_entries[0].line, field="gram")
