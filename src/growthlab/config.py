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

Inline command-line flags override file values: single-valued keys are
replaced, repeatable keys are replaced as a block when any inline
value for them is present.  Every diagnostic carries the offending
line and field so a malformed document never surfaces as a traceback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError
from .ehrhart import LatticePolytope, cross_polytope, root_polytope
from .groups import (FreeAbelian, FreeGroup, MarkedGroup, MatrixGroup,
                     PermutationGroup, free_abelian_standard,
                     free_group_standard, heisenberg_group,
                     symmetric_group_adjacent)
from .theta import IntegralLattice

_KEY_RE = re.compile(r"^[a-z][a-z0-9-]*$")

# keys that accumulate rows instead of overwriting
MULTI_KEYS = frozenset({"generator", "vertex", "basis", "gram"})


@dataclass(frozen=True)
class ConfigEntry:
    line: int | None  # None for entries injected from command-line flags
    key: str
    value: str


@dataclass(frozen=True)
class ConfigDocument:
    entries: tuple

    def get(self, key: str) -> ConfigEntry | None:
        """Last entry for a single-valued key (later lines win)."""
        found = None
        for e in self.entries:
            if e.key == key:
                found = e
        return found

    def get_all(self, key: str) -> list:
        return [e for e in self.entries if e.key == key]

    def keys(self) -> set:
        return {e.key for e in self.entries}

    def override(self, single=None, multi=None) -> "ConfigDocument":
        """Apply command-line values on top of this document.

        `single` maps key -> value (ignored when the value is None);
        `multi` maps key -> list of values, replacing all file entries
        for that key when the list is nonempty.
        """
        entries = list(self.entries)
        if multi:
            for key, values in multi.items():
                if values:
                    entries = [e for e in entries if e.key != key]
                    entries.extend(ConfigEntry(None, key, str(v))
                                   for v in values)
        if single:
            for key, value in single.items():
                if value is not None:
                    entries.append(ConfigEntry(None, key, str(value)))
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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
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
    value = entry.value.lower()
    if value not in choices:
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

GROUP_FAMILIES = frozenset({
    "free-abelian", "free", "heisenberg", "symmetric", "matrix",
    "permutation",
})


def build_marked_group(doc: ConfigDocument) -> MarkedGroup:
    """Construct a marked group from a config document."""
    family = get_choice(doc, "family", GROUP_FAMILIES)
    if family is None:
        raise ConfigError("missing required key", field="family")
    symmetrize = get_bool(doc, "symmetrize", True)
    gen_entries = doc.get_all("generator")

    if family == "heisenberg":
        return heisenberg_group()

    if family == "symmetric":
        degree = require_int(doc, "degree", minimum=2)
        return symmetric_group_adjacent(degree)

    if family == "free-abelian":
        rank = require_int(doc, "rank", minimum=1)
        if not gen_entries:
            mg = free_abelian_standard(rank)
            if symmetrize:
                return mg
            return MarkedGroup(mg.family, mg.generators, symmetrize=False)
        gens = []
        for e in gen_entries:
            vec = _int_list(e)
            if len(vec) != rank:
                raise ConfigError(f"generator must have {rank} coordinates",
                                  line=e.line, field="generator")
            gens.append(tuple(vec))
        return MarkedGroup(FreeAbelian(rank), tuple(gens), symmetrize)

    if family == "free":
        rank = require_int(doc, "rank", minimum=1)
        if not gen_entries:
            return free_group_standard(rank)
        gens = []
        for e in gen_entries:
            word = _int_list(e)
            if any(x == 0 or abs(x) > rank for x in word):
                raise ConfigError(
                    f"free group letters must lie in 1..{rank} with sign",
                    line=e.line, field="generator")
            gens.append(tuple(word))
        return MarkedGroup(FreeGroup(rank), tuple(gens), symmetrize)

    if family == "matrix":
        dim = require_int(doc, "dim", minimum=1)
        if not gen_entries:
            raise ConfigError("matrix groups need explicit generators",
                              field="generator")
        gens = []
        for e in gen_entries:
            rows = _int_rows(e)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ConfigError(f"generator must be a {dim}x{dim} matrix",
                                  line=e.line, field="generator")
            gens.append(tuple(tuple(r) for r in rows))
        return MarkedGroup(MatrixGroup(dim), tuple(gens), symmetrize)

    # permutation
    degree = require_int(doc, "degree", minimum=1)
    if not gen_entries:
        raise ConfigError("permutation groups need explicit generators",
                          field="generator")
    gens = []
    for e in gen_entries:
        img = _int_list(e)
        if sorted(img) != list(range(1, degree + 1)):
            raise ConfigError(
                f"generator must be a permutation of 1..{degree}",
                line=e.line, field="generator")
        gens.append(tuple(img))
    return MarkedGroup(PermutationGroup(degree), tuple(gens), symmetrize)


POLYTOPE_FAMILIES = frozenset({"cross", "root", "custom"})


def build_polytope(doc: ConfigDocument) -> LatticePolytope:
    """Construct a lattice polytope from a config document: either one
    of the stock families (`polytope = cross|root` with `n = ...`) or a
    custom vertex list with optional lattice basis rows."""
    kind = get_choice(doc, "polytope", POLYTOPE_FAMILIES, default="custom")
    if kind == "cross":
        return cross_polytope(require_int(doc, "n", minimum=1))
    if kind == "root":
        return root_polytope(require_int(doc, "n", minimum=1))
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
    return LatticePolytope.make(ambient, vertices, basis)


def build_lattice(doc: ConfigDocument) -> IntegralLattice:
    """Construct an integral lattice: explicit `gram` rows, or `rank`
    alone for the standard Z^rank identity form."""
    gram_entries = doc.get_all("gram")
    if gram_entries:
        rows = []
        for e in gram_entries:
            rows.append(_int_list(e))
        width = len(rows)
        for e, row in zip(gram_entries, rows):
            if len(row) != width:
                raise ConfigError(
                    f"gram matrix must be square ({width} rows)",
                    line=e.line, field="gram")
        return IntegralLattice.make(rows)
    rank = require_int(doc, "rank", minimum=1)
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return IntegralLattice.make(identity)
