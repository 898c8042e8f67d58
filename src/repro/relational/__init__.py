"""Relational substrate: schemas, tables, indexes, predicates.

Every reactor encapsulates a private :class:`~repro.relational.catalog.Catalog`
of :class:`~repro.relational.table.Table` instances built from
:class:`~repro.relational.schema.TableSchema` definitions.  Declarative
access works *only within* a reactor (paper Section 2.2.1), through the
context's record-manager verbs (``ctx.lookup`` / ``multi_lookup`` /
``select`` / ``insert`` / ``update`` / ``delete``); cross-reactor
access is always an asynchronous procedure call.

Public exports: schema builders (``make_schema``, the ``*_col``
helpers, :class:`TableSchema`, :class:`IndexSpec`), the storage
objects (:class:`Catalog`, :class:`Table`) and the predicate algebra
(``col``, :class:`Comparison`, :class:`Between`, :class:`InSet`,
:data:`ALWAYS`) that ``ctx.select``'s ``where``
argument takes.
"""

from repro.relational.catalog import Catalog
from repro.relational.predicate import (
    ALWAYS,
    Between,
    Comparison,
    InSet,
    Predicate,
    col,
)
from repro.relational.schema import (
    Column,
    ColumnType,
    IndexSpec,
    TableSchema,
    column,
    float_col,
    int_col,
    make_schema,
    str_col,
)
from repro.relational.table import Table

__all__ = [
    "Catalog",
    "Table",
    "TableSchema",
    "Column",
    "ColumnType",
    "IndexSpec",
    "column",
    "int_col",
    "float_col",
    "str_col",
    "make_schema",
    "Predicate",
    "Comparison",
    "Between",
    "InSet",
    "ALWAYS",
    "col",
]
