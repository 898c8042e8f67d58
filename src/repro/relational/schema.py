"""Relation schemas.

A reactor encapsulates *whole relational schemas* (Section 2.2.1): each
reactor instance owns private tables created from the
:class:`TableSchema` definitions of its reactor type.  Schemas validate
rows on insert/update, define the primary key, and declare secondary
indexes (hash for equality lookups, ordered for range scans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any, Iterable, Mapping

from repro.errors import SchemaError


class ColumnType(Enum):
    """Supported column types; values are the accepted Python types."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    def accepts(self, value: Any) -> bool:
        if value is None:
            return True  # nullability checked separately
        if self is ColumnType.BOOL:
            return isinstance(value, bool)
        return isinstance(value, _PYTHON_TYPES[self]) and \
            not isinstance(value, bool)


#: The Python classes a column type stores (``bool`` is an ``int``
#: subclass but is only ever accepted by BOOL columns).
_PYTHON_TYPES: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INT: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.STR: (str,),
    ColumnType.BOOL: (bool,),
}

#: (column type, nullable) -> the exact value classes such a column
#: accepts on sight; shared by every column of that shape.
_FAST_TYPES: dict[tuple[ColumnType, bool], frozenset] = {
    (ctype, nullable): frozenset(
        classes + ((type(None),) if nullable else ()))
    for ctype, classes in _PYTHON_TYPES.items()
    for nullable in (False, True)
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType
    nullable: bool = False
    #: Exact value classes accepted on sight, chosen once at
    #: declaration (``NoneType`` included when nullable).  Row
    #: validation tests ``type(value) in fast_types`` per value and
    #: only takes anything else — subclasses, mismatches, a ``None``
    #: in a non-nullable column — through :meth:`validate`.
    fast_types: frozenset = field(init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fast_types",
                           _FAST_TYPES[self.type, bool(self.nullable)])

    def validate(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not self.type.accepts(value):
            raise SchemaError(
                f"column {self.name!r} expects {self.type.value}, "
                f"got {type(value).__name__} ({value!r})"
            )


@dataclass(frozen=True)
class IndexSpec:
    """A secondary index declaration.

    ``ordered=True`` builds a sorted index supporting range scans (used
    e.g. for TPC-C order lookups); otherwise a hash index supporting
    equality lookups only.
    """

    name: str
    columns: tuple[str, ...]
    ordered: bool = False
    unique: bool = False


@dataclass(frozen=True)
class TableSchema:
    """Schema of one relation: columns, primary key, secondary indexes."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    indexes: tuple[IndexSpec, ...] = field(default_factory=tuple)
    # Compiled once, here, from the declaration above: everything row
    # and assignment validation would otherwise re-derive per call.
    _by_name: dict[str, Column] = field(init=False, repr=False,
                                        compare=False)
    _pk_of: Any = field(init=False, repr=False, compare=False)
    #: Column names in declaration order, and a getter reading a row's
    #: values in that order as a tuple: what the install loop seals a
    #: redo value run from (:class:`repro.durability.wal.RedoRecord`).
    column_names: tuple[str, ...] = field(init=False, repr=False,
                                          compare=False)
    values_of: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {self.name!r}")
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} needs a primary key")
        by_name = {c.name: c for c in self.columns}
        for pk_col in self.primary_key:
            if pk_col not in by_name:
                raise SchemaError(
                    f"primary key column {pk_col!r} not in table "
                    f"{self.name!r}"
                )
            # Keys of one table always compare: the canonical
            # write-set order sorts on them.
            if by_name[pk_col].nullable:
                raise SchemaError(
                    f"primary key column {pk_col!r} of table "
                    f"{self.name!r} cannot be nullable"
                )
        index_names = set()
        for spec in self.indexes:
            if spec.name in index_names:
                raise SchemaError(f"duplicate index name {spec.name!r}")
            index_names.add(spec.name)
            for col in spec.columns:
                if col not in by_name:
                    raise SchemaError(
                        f"index {spec.name!r} references unknown column "
                        f"{col!r}"
                    )
        compiled = object.__setattr__
        compiled(self, "_by_name", by_name)
        compiled(self, "_pk_of", itemgetter(*self.primary_key))
        compiled(self, "column_names", tuple(names))
        if len(names) > 1:
            compiled(self, "values_of", itemgetter(*names))
        else:
            only = names[0]
            compiled(self, "values_of", lambda row: (row[only],))

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}") from None

    def validate_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and normalize a full row; returns a fresh dict.

        Missing nullable columns are filled with ``None``; missing
        non-nullable columns are an error, as are unknown keys.
        """
        out: dict[str, Any] = {}
        present = 0
        for col in self.columns:
            name = col.name
            if name in row:
                value = row[name]
                present += 1
            else:
                value = None
            if type(value) not in col.fast_types:
                col.validate(value)
            out[name] = value
        if present != len(row):
            unknown = set(row) - set(out)
            raise SchemaError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        return out

    def validate_assignments(self, assignments: Mapping[str, Any]) -> None:
        """Validate a partial update (column -> new value)."""
        by_name = self._by_name
        for name, value in assignments.items():
            try:
                col = by_name[name]
            except KeyError:
                col = self.column(name)  # raises the typed error
            if name in self.primary_key:
                raise SchemaError(
                    f"cannot update primary key column {name!r}"
                )
            if type(value) not in col.fast_types:
                col.validate(value)

    def primary_key_of(self, row: Mapping[str, Any]) -> tuple:
        """Extract the primary-key tuple from a row."""
        try:
            key = self._pk_of(row)
        except KeyError as exc:
            raise SchemaError(
                f"row missing primary key column {exc.args[0]!r} "
                f"for table {self.name!r}"
            ) from exc
        return key if len(self.primary_key) > 1 else (key,)


def column(name: str, type_: ColumnType | str,
           nullable: bool = False) -> Column:
    """Convenience constructor accepting type names as strings."""
    if isinstance(type_, str):
        type_ = ColumnType(type_)
    return Column(name=name, type=type_, nullable=nullable)


def int_col(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.INT, nullable)


def float_col(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.FLOAT, nullable)


def str_col(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.STR, nullable)


def make_schema(name: str, columns: Iterable[Column],
                primary_key: Iterable[str],
                indexes: Iterable[IndexSpec] = ()) -> TableSchema:
    """Convenience constructor normalizing iterables to tuples."""
    return TableSchema(
        name=name,
        columns=tuple(columns),
        primary_key=tuple(primary_key),
        indexes=tuple(indexes),
    )
