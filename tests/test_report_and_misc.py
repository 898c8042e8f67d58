"""Remaining coverage: report formatting details, catalog edges,
record locking, error taxonomy."""

import pytest

from repro.bench.report import _fmt, format_table
from repro.errors import (
    DangerousStructureAbort,
    ReactorError,
    SchemaError,
    TransactionAbort,
    UserAbort,
    ValidationAbort,
)
from repro.relational import Catalog, int_col, make_schema
from repro.storage.record import VersionedRecord


class TestReportFormatting:
    def test_float_formats(self):
        assert _fmt(0.0) == "0"
        assert _fmt(1234.5) == "1,234"  # banker's rounding
        assert _fmt(42.42) == "42.4"
        assert _fmt(1.2345) == "1.234"  # 3 decimals under 10
        assert _fmt("text") == "text"

    def test_numbers_right_aligned_text_left(self):
        table = format_table(["name", "value"],
                             [["alpha", 1.0], ["b", 123.0]])
        lines = table.splitlines()
        assert lines[2].startswith("alpha")
        assert lines[2].rstrip().endswith("1.000")

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestCatalog:
    def test_duplicate_table_rejected(self):
        schema = make_schema("t", [int_col("a")], ["a"])
        catalog = Catalog([schema])
        with pytest.raises(SchemaError):
            catalog.create_table(schema)

    def test_missing_table_reports_known(self):
        catalog = Catalog([make_schema("t", [int_col("a")], ["a"])])
        with pytest.raises(SchemaError) as exc:
            catalog.table("missing")
        assert "t" in str(exc.value)

    def test_contains_and_iter(self):
        catalog = Catalog([make_schema("t", [int_col("a")], ["a"])])
        assert "t" in catalog
        assert "u" not in catalog
        assert [t.name for t in catalog] == ["t"]


class TestVersionedRecord:
    def test_record_carries_no_lock_word(self):
        # OCC validates and installs inside one guarded call and 2PL
        # locks in its own lock table: a record is its TID word, its
        # image and its chain, nothing more.
        assert VersionedRecord.__slots__ == (
            "key", "value", "tid", "deleted", "prev")
        record = VersionedRecord((1,), {"a": 1}, tid=1)
        assert not record.deleted and record.prev is None

    def test_snapshot_is_defensive(self):
        record = VersionedRecord((1,), {"a": 1}, tid=1)
        snap = record.snapshot()
        snap["a"] = 99
        assert record.value["a"] == 1


class TestErrorTaxonomy:
    def test_aborts_are_reactor_errors(self):
        for error_type in (TransactionAbort, UserAbort,
                           ValidationAbort, DangerousStructureAbort):
            assert issubclass(error_type, ReactorError)

    def test_abort_subtree(self):
        assert issubclass(UserAbort, TransactionAbort)
        assert issubclass(ValidationAbort, TransactionAbort)
        assert issubclass(DangerousStructureAbort, TransactionAbort)

    def test_one_except_clause_catches_everything(self):
        caught = []
        for error in (UserAbort("u"), ValidationAbort("v"),
                      SchemaError("s")):
            try:
                raise error
            except ReactorError as exc:
                caught.append(type(exc).__name__)
        assert len(caught) == 3
