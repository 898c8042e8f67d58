"""Per-reactor schema catalogs.

A :class:`Catalog` is the set of tables a single reactor encapsulates.
Reactor types declare a *schema creation function* (per Section 2.2.1)
that builds the catalog when the reactor database is instantiated.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.schema import TableSchema
from repro.relational.table import Table


class _Tables(dict):
    """name -> :class:`Table`; subscripting a name that is not there
    raises the typed error instead of ``KeyError``."""

    __slots__ = ()

    def __missing__(self, name: str) -> Table:
        known = ", ".join(sorted(self)) or "<none>"
        raise SchemaError(
            f"no table {name!r} in this reactor; known tables: {known}"
        )


class Catalog:
    """The private tables of one reactor instance."""

    __slots__ = ("tables",)

    def __init__(self, schemas: Iterable[TableSchema] = ()) -> None:
        #: Execution contexts subscript it directly (one probe per
        #: data operation); only :meth:`create_table` adds to it.
        self.tables = _Tables()
        for schema in schemas:
            self.create_table(schema)

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        return self.tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables.values())
