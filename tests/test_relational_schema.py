"""Schema definition and row validation tests."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import (
    ColumnType,
    IndexSpec,
    float_col,
    int_col,
    make_schema,
    str_col,
    column,
)


def sample_schema(**kwargs):
    return make_schema(
        "accounts",
        [int_col("id"), str_col("name"), float_col("balance"),
         column("active", "bool", nullable=True)],
        ["id"],
        **kwargs,
    )


class TestColumnTypes:
    def test_int_accepts_int_only(self):
        assert ColumnType.INT.accepts(5)
        assert not ColumnType.INT.accepts(5.0)
        assert not ColumnType.INT.accepts(True)  # bool is not an int

    def test_float_accepts_int_and_float(self):
        assert ColumnType.FLOAT.accepts(5)
        assert ColumnType.FLOAT.accepts(5.5)
        assert not ColumnType.FLOAT.accepts("5")

    def test_str(self):
        assert ColumnType.STR.accepts("x")
        assert not ColumnType.STR.accepts(5)

    def test_bool(self):
        assert ColumnType.BOOL.accepts(True)
        assert not ColumnType.BOOL.accepts(1)

    def test_none_is_handled_by_nullability(self):
        assert ColumnType.INT.accepts(None)

    def test_column_from_string_type(self):
        col = column("x", "int")
        assert col.type is ColumnType.INT


class TestSchemaDefinition:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            make_schema("t", [int_col("a"), int_col("a")], ["a"])

    def test_primary_key_required(self):
        with pytest.raises(SchemaError):
            make_schema("t", [int_col("a")], [])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema("t", [int_col("a")], ["b"])

    def test_primary_key_columns_are_not_nullable(self):
        # One table's keys must always compare: the canonical
        # write-set order sorts on them.
        with pytest.raises(SchemaError, match="cannot be nullable"):
            make_schema("t", [int_col("a"), int_col("b", nullable=True)],
                        ["a", "b"])
        make_schema("t", [int_col("a"), int_col("b", nullable=True)],
                    ["a"])

    def test_index_column_must_exist(self):
        with pytest.raises(SchemaError):
            sample_schema(indexes=[IndexSpec("bad", ("missing",))])

    def test_duplicate_index_names_rejected(self):
        with pytest.raises(SchemaError):
            sample_schema(indexes=[IndexSpec("i", ("name",)),
                                   IndexSpec("i", ("balance",))])

    def test_column_lookup(self):
        schema = sample_schema()
        assert schema.column("name").type is ColumnType.STR
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_column_names(self):
        schema = sample_schema()
        declared = ("id", "name", "balance", "active")
        assert tuple(c.name for c in schema.columns) == declared
        row = schema.validate_row(
            {"balance": 2.0, "name": "a", "id": 1})
        assert tuple(row) == declared


class TestRowValidation:
    def test_valid_row_normalized(self):
        schema = sample_schema()
        row = schema.validate_row(
            {"id": 1, "name": "a", "balance": 2.0})
        assert row == {"id": 1, "name": "a", "balance": 2.0,
                       "active": None}

    def test_missing_non_nullable_rejected(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"id": 1, "name": "a"})

    def test_wrong_type_rejected(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            schema.validate_row(
                {"id": "one", "name": "a", "balance": 2.0})

    def test_unknown_column_rejected(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"id": 1, "name": "a", "balance": 2.0,
                                 "extra": 1})

    def test_primary_key_extraction(self):
        schema = sample_schema()
        assert schema.primary_key_of(
            {"id": 9, "name": "x", "balance": 0.0}) == (9,)

    def test_primary_key_missing(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            schema.primary_key_of({"name": "x"})

    def test_assignments_validated(self):
        schema = sample_schema()
        schema.validate_assignments({"balance": 3.0})
        with pytest.raises(SchemaError):
            schema.validate_assignments({"balance": "lots"})

    def test_primary_key_update_rejected(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            schema.validate_assignments({"id": 2})
