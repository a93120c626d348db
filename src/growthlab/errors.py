"""Exception hierarchy and record base shared by all growthlab modules.

The command line interface maps these exceptions onto process exit
codes: configuration and argument problems exit with 2, exhausted
enumeration budgets with 3, and violated invariants or failed
verification checks with 4.
"""

from __future__ import annotations


class Record:
    """Base of growthlab's immutable records, written out so that no
    class is generated at import.  A subclass names its fields in
    ``__slots__``, kept as ``_fields``; a subclass of it that adds no
    field declares ``__slots__ = ()`` and keeps them.  Its own
    ``__init__``, if any, checks the arguments and passes the values on
    (or, on a hot path, sets them with ``object.__setattr__``).  Records
    are equal, and hash equal, by type and ``_values``; a field cannot
    be assigned or deleted."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if not cls._fields:  # the first nonempty __slots__ down from Record
            cls._fields = cls.__slots__

    def __init__(self, *values):
        names = self._fields
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} cannot be assigned or deleted")

    __delattr__ = __setattr__


class GrowthLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GrowthLabError):
    """Malformed or inconsistent configuration input.

    Carries the offending line number and field name when known, so the
    CLI can point at the exact location instead of crashing.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


class ArgumentError(GrowthLabError):
    """A parameter value violates an operation's precondition."""


class StructuralError(GrowthLabError):
    """An element or matrix does not satisfy the structural requirements
    of its group family (wrong rank, non-unimodular matrix, family
    mismatch, and the like).  ``index``, when known, is the position of
    the refused generator or vertex among those a constructor was given."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class BudgetExceededError(GrowthLabError):
    """Ball enumeration hit its element budget.

    ``last_radius`` is the largest radius whose sphere was completed;
    ``partial`` holds the table truncated to that radius when one could
    be salvaged.
    """

    def __init__(self, message: str, last_radius: int, partial=None):
        self.last_radius = last_radius
        self.partial = partial
        super().__init__(message)


class CheckFailure(GrowthLabError):
    """A verified invariant or acceptance check did not hold.

    ``context`` carries whatever identifies the failure (an offending
    t value, a mismatching index, ...).
    """

    def __init__(self, message: str, context=None):
        self.context = context
        super().__init__(message)
