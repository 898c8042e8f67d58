"""Index structures and versioned table tests."""

import pytest

from repro.errors import DuplicateKeyError, RecordNotFound, SchemaError
from repro.relational.index import HashIndex, OrderedIndex, make_spec
from repro.relational.schema import (
    IndexSpec,
    float_col,
    int_col,
    make_schema,
    str_col,
)
from repro.relational.table import Table


def order_schema():
    return make_schema(
        "orders",
        [int_col("d_id"), int_col("o_id"), str_col("status"),
         float_col("amount")],
        ["d_id", "o_id"],
        [IndexSpec("by_status", ("status",)),
         IndexSpec("by_d", ("d_id", "o_id"), ordered=True)],
    )


class TestHashIndex:
    def test_insert_lookup_remove(self):
        index = HashIndex(make_spec("i", ["a"]))
        index.insert(("x",), (1,))
        index.insert(("x",), (2,))
        assert index.lookup(("x",)) == {(1,), (2,)}
        index.remove(("x",), (1,))
        assert index.lookup(("x",)) == {(2,)}
        assert index.lookup(("missing",)) == frozenset()

    def test_unique_violation(self):
        index = HashIndex(make_spec("i", ["a"], unique=True))
        index.insert(("x",), (1,))
        with pytest.raises(DuplicateKeyError):
            index.insert(("x",), (2,))

    def test_structure_version_bumps(self):
        index = HashIndex(make_spec("i", ["a"]))
        v0 = index.structure_version
        index.insert(("x",), (1,))
        assert index.structure_version > v0

    def test_len(self):
        index = HashIndex(make_spec("i", ["a"]))
        index.insert(("x",), (1,))
        index.insert(("y",), (2,))
        assert len(index) == 2


class TestOrderedIndex:
    def _populated(self):
        index = OrderedIndex(make_spec("i", ["d", "o"], ordered=True))
        for d in (1, 2):
            for o in range(5):
                index.insert((d, o), (d, o))
        return index

    def test_full_range(self):
        index = self._populated()
        assert len(list(index.range(None, None))) == 10

    def test_prefix_range(self):
        index = self._populated()
        pks = list(index.range((1,), (1,)))
        assert pks == [(1, o) for o in range(5)]

    def test_bounded_range_inclusive(self):
        index = self._populated()
        pks = list(index.range((1, 1), (1, 3)))
        assert pks == [(1, 1), (1, 2), (1, 3)]

    def test_reverse_range(self):
        index = self._populated()
        pks = list(index.range((2,), (2,), reverse=True))
        assert pks[0] == (2, 4)

    def test_open_low_bound(self):
        index = self._populated()
        pks = list(index.range(None, (1, 1)))
        assert pks == [(1, 0), (1, 1)]

    def test_remove(self):
        index = self._populated()
        index.remove((1, 2), (1, 2))
        assert (1, 2) not in list(index.range((1,), (1,)))

    def test_lookup_exact(self):
        index = self._populated()
        assert index.lookup((1, 3)) == {(1, 3)}

    def test_unique_violation(self):
        index = OrderedIndex(make_spec("i", ["a"], ordered=True,
                                       unique=True))
        index.insert((1,), (1,))
        with pytest.raises(DuplicateKeyError):
            index.insert((1,), (2,))


class TestTable:
    def test_insert_and_get(self):
        table = Table(order_schema())
        record = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        assert table.get_record((1, 1)) is record
        assert len(table) == 1

    def test_duplicate_insert_rejected(self):
        table = Table(order_schema())
        row = {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0}
        table.install_insert((1, 1), row, tid=1)
        with pytest.raises(DuplicateKeyError):
            table.install_insert((1, 1), row, tid=2)

    def test_update_maintains_indexes(self):
        table = Table(order_schema())
        record = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        table.install_update(record, dict(record.value, status="done"),
                             tid=2)
        assert table.index("by_status").lookup(("new",)) == frozenset()
        assert table.index("by_status").lookup(("done",)) == {(1, 1)}
        assert record.tid == 2

    def test_delete_tombstones(self):
        table = Table(order_schema())
        record = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        table.install_delete(record, tid=2)
        assert table.get_record((1, 1)) is None
        assert record.deleted
        assert table.index("by_status").lookup(("new",)) == frozenset()

    def test_insert_revives_tombstone(self):
        table = Table(order_schema())
        record = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        table.install_delete(record, tid=2)
        revived = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "back", "amount": 1.0},
            tid=3)
        assert revived is record
        assert table.get_record((1, 1)).value["status"] == "back"

    def test_structure_version_on_insert_delete_not_update(self):
        table = Table(order_schema())
        v0 = table.structure_version
        record = table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        v1 = table.structure_version
        assert v1 > v0
        table.install_update(record, dict(record.value, amount=1.0),
                             tid=2)
        assert table.structure_version == v1
        table.install_delete(record, tid=3)
        assert table.structure_version > v1

    def test_iter_records_sorted_and_live_only(self):
        table = Table(order_schema())
        for o in (3, 1, 2):
            table.install_insert(
                (1, o),
                {"d_id": 1, "o_id": o, "status": "new", "amount": 0.0},
                tid=1)
        record = table.get_record((1, 2))
        table.install_delete(record, tid=2)
        keys = [r.key for r in table.iter_records()]
        assert keys == [(1, 1), (1, 3)]

    def test_schema_validation_on_load(self):
        # load_row is the table's one entry for unvalidated input; the
        # install_* paths take images the record manager already
        # validated (next test).
        table = Table(order_schema())
        with pytest.raises(SchemaError):
            table.load_row({"d_id": 1, "o_id": 1,
                            "status": 7, "amount": 0.0}, tid=1)
        assert len(table) == 0

    def test_load_copies_install_takes_ownership_of_the_image(self):
        table = Table(order_schema())
        row = {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0}
        table.load_row(row, tid=1)
        record = table.get_record((1, 1))
        assert record.value == row and record.value is not row
        image = dict(row, status="done")
        table.install_update(record, image, tid=2)
        assert record.value is image

    def test_placeholder_is_invisible_and_revived_in_place(self):
        table = Table(order_schema())
        placeholder = table.ensure_placeholder((9, 9))
        assert table.get_record((9, 9)) is None
        assert table.ensure_placeholder((9, 9)) is placeholder
        row = {"d_id": 9, "o_id": 9, "status": "new", "amount": 1.0}
        assert table.install_insert((9, 9), row, tid=3) is placeholder
        assert table.get_record((9, 9)) is placeholder
        assert (placeholder.tid, placeholder.prev) == (3, None)

    def test_discarded_placeholder_leaves_no_record(self):
        table = Table(order_schema())
        table.discard_placeholder(table.ensure_placeholder((9, 9)))
        assert (9, 9) not in table.records

    def test_rows_snapshot(self):
        table = Table(order_schema())
        table.install_insert(
            (1, 1), {"d_id": 1, "o_id": 1, "status": "new", "amount": 5.0},
            tid=1)
        rows = table.rows()
        rows[0]["amount"] = 999.0
        assert table.get_record((1, 1)).value["amount"] == 5.0

    def test_tables_without_indexes_share_one_read_only_map(self):
        schema = make_schema("plain", [int_col("id")], ["id"])
        first, second = Table(schema), Table(schema)
        assert first.indexes is second.indexes
        assert len(first.indexes) == 0
        with pytest.raises(TypeError):
            first.indexes["by_id"] = None
        assert len(Table(order_schema()).indexes) == 2

    def test_missing_index_is_a_typed_error(self):
        for schema in (order_schema(),
                       make_schema("plain", [int_col("id")], ["id"])):
            with pytest.raises(RecordNotFound):
                Table(schema).index("missing")
