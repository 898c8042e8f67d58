"""Predicate expressions: the ``where`` argument of ``ctx.select``.

Predicates are small composable objects evaluated against row dicts.
The :func:`col` builder gives an expression syntax close to the paper's
pseudo-SQL::

    from repro.relational.predicate import col

    pred = (col("settled") == "N") & (col("value") > 100.0)

Predicates expose their equality constraints (:meth:`equality_bindings`)
so a scan can probe a hash index instead of walking the whole table.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping


class Predicate:
    """Base class; subclasses implement :meth:`matches`."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)

    def equality_bindings(self) -> dict[str, Any]:
        """Column -> value constraints implied conjunctively.

        Only top-level AND-combined equality comparisons are reported;
        used for index selection, never for correctness.
        """
        return {}

    def columns(self) -> set[str]:
        """All columns referenced (for validation against schemas)."""
        return set()


class TruePredicate(Predicate):
    """Matches every row (the absent-WHERE-clause predicate)."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        return True

    def __repr__(self) -> str:
        return "TRUE"


ALWAYS = TruePredicate()


class Comparison(Predicate):
    """column <op> literal."""

    _OPS: dict[str, Callable[[Any, Any], Any]] = {
        "==": operator.eq,
        "!=": operator.ne,
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }

    __slots__ = ("column", "op", "value", "_test")

    def __init__(self, column: str, op: str, value: Any) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.column = column
        self.op = op
        self.value = value
        #: The ``operator`` function of ``op``, bound once here: a row
        #: test is one C call.
        self._test = self._OPS[op]

    def matches(self, row: Mapping[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        return self._test(actual, self.value)

    def equality_bindings(self) -> dict[str, Any]:
        if self.op == "==":
            return {self.column: self.value}
        return {}

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


class Between(Predicate):
    """low <= column <= high (inclusive range, for ordered indexes)."""

    __slots__ = ("column", "low", "high")

    def __init__(self, column: str, low: Any, high: Any) -> None:
        self.column = column
        self.low = low
        self.high = high

    def matches(self, row: Mapping[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        return self.low <= actual <= self.high

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.low!r} <= {self.column} <= {self.high!r})"


class InSet(Predicate):
    """column IN (literal, ...)."""

    __slots__ = ("column", "values")

    def __init__(self, column: str, values: Any) -> None:
        self.column = column
        self.values = frozenset(values)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row.get(self.column) in self.values

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} IN {sorted(self.values)!r})"


class And(Predicate):
    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate) -> None:
        flat: list[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts = tuple(flat)

    def matches(self, row: Mapping[str, Any]) -> bool:
        for part in self.parts:
            if not part.matches(row):
                return False
        return True

    def equality_bindings(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for part in self.parts:
            out.update(part.equality_bindings())
        return out

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate) -> None:
        self.parts = tuple(parts)

    def matches(self, row: Mapping[str, Any]) -> bool:
        for part in self.parts:
            if part.matches(row):
                return True
        return False

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    __slots__ = ("inner",)

    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def matches(self, row: Mapping[str, Any]) -> bool:
        return not self.inner.matches(row)

    def columns(self) -> set[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class ColumnRef:
    """Column reference supporting operator-overloaded comparisons."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "==", other)

    def __ne__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "!=", other)

    def __lt__(self, other: Any) -> Comparison:
        return Comparison(self.name, "<", other)

    def __le__(self, other: Any) -> Comparison:
        return Comparison(self.name, "<=", other)

    def __gt__(self, other: Any) -> Comparison:
        return Comparison(self.name, ">", other)

    def __ge__(self, other: Any) -> Comparison:
        return Comparison(self.name, ">=", other)

    def between(self, low: Any, high: Any) -> Between:
        return Between(self.name, low, high)

    def in_(self, values: Any) -> InSet:
        return InSet(self.name, values)

    def __hash__(self) -> int:  # needed because __eq__ is overloaded
        return hash(self.name)

    def __repr__(self) -> str:
        return f"col({self.name!r})"


def col(name: str) -> ColumnRef:
    """Build a column reference: ``col("balance") >= 0``."""
    return ColumnRef(name)
