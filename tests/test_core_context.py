"""ReactorContext API coverage: queries, updates, utilities."""

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.core.reactor import ReactorType
from repro.errors import TransactionAbort
from repro.relational import (
    ALWAYS,
    IndexSpec,
    col,
    float_col,
    int_col,
    make_schema,
    str_col,
)

INVENTORY = ReactorType("Inventory", lambda: [
    make_schema("items", [
        int_col("id"), str_col("category"), float_col("price"),
        int_col("stock"),
    ], ["id"], [
        IndexSpec("by_category", ("category",)),
        IndexSpec("by_price", ("price",), ordered=True),
    ]),
])


@INVENTORY.procedure
def probe(ctx, action, *args):
    """Dispatch helper so tests can exercise each context method."""
    if action == "lookup":
        return ctx.lookup("items", args[0])
    if action == "select":
        return ctx.select("items", *args)
    if action == "select_range":
        low, high, reverse, limit = args
        return ctx.select("items", index="by_price", low=low,
                          high=high, reverse=reverse, limit=limit)
    if action == "insert":
        ctx.insert("items", args[0])
        return None
    if action == "update":
        return ctx.update("items", args[0], args[1])
    if action == "delete":
        ctx.delete("items", args[0])
        return None
    if action == "meta":
        return {"name": ctx.my_name(), "now": ctx.now}
    if action == "rng":
        return [ctx.rng.random() for __ in range(3)]
    if action == "select_kw":
        return ctx.select("items", **args[0])
    if action == "multi_lookup":
        return ctx.multi_lookup("items", args[0])
    if action == "missing_table":
        return ctx.lookup("nope", 1)
    raise AssertionError(f"unknown action {action}")


@INVENTORY.procedure
def restock(ctx, where, amount):
    """Update every row a predicate selects; returns how many."""
    rows = ctx.select("items", where)
    for row in rows:
        ctx.update("items", row["id"], {"stock": row["stock"] + amount})
    return len(rows)


@INVENTORY.procedure
def clear(ctx, where):
    """Delete every row a predicate selects; returns how many."""
    rows = ctx.select("items", where)
    for row in rows:
        ctx.delete("items", row["id"])
    return len(rows)


@INVENTORY.procedure
def write_then_read(ctx, steps, where=None):
    """Apply ``(verb, *args)`` steps, then read back in the same txn:
    the ids ``where`` selects and the image of every touched key."""
    touched = []
    for verb, *args in steps:
        getattr(ctx, verb)("items", *args)
        key = args[0]["id"] if verb == "insert" else args[0]
        touched.append(key)
    selected = None
    if where is not None:
        selected = [r["id"] for r in ctx.select("items", where)]
    return selected, {pk: ctx.lookup("items", pk) for pk in touched}


@INVENTORY.procedure
def write_then_abort(ctx, steps, reason):
    for verb, *args in steps:
        getattr(ctx, verb)("items", *args)
    ctx.abort(reason)


@INVENTORY.procedure
def mutate_result(ctx, pk):
    """Scribble on returned images; the stored row must not move."""
    ctx.lookup("items", pk)["stock"] = -1
    for row in ctx.select("items", col("id") == pk):
        row["stock"] = -2
    ctx.update("items", pk, {"price": 1.5})["stock"] = -3
    return ctx.lookup("items", pk)


@INVENTORY.procedure
def timed_compute(ctx, micros):
    before = ctx.now
    yield ctx.compute(micros)
    return before, ctx.now


@pytest.fixture
def inv():
    database = ReactorDatabase(shared_nothing(1),
                               [("store", INVENTORY)])
    database.load("store", "items", [
        {"id": 1, "category": "tools", "price": 9.5, "stock": 3},
        {"id": 2, "category": "tools", "price": 19.0, "stock": 0},
        {"id": 3, "category": "toys", "price": 4.0, "stock": 7},
        {"id": 4, "category": "toys", "price": 14.0, "stock": 2},
    ])
    return database


class TestQueries:
    def test_lookup_scalar_pk(self, inv):
        row = inv.run("store", "probe", "lookup", 3)
        assert row["category"] == "toys"

    def test_lookup_missing(self, inv):
        assert inv.run("store", "probe", "lookup", 99) is None

    def test_select_with_predicate(self, inv):
        rows = inv.run("store", "probe", "select",
                       col("category") == "tools")
        assert {r["id"] for r in rows} == {1, 2}

    def test_ordered_index_range(self, inv):
        rows = inv.run("store", "probe", "select_range",
                       (5.0,), (15.0,), False, None)
        assert [r["id"] for r in rows] == [1, 4]

    def test_reverse_limited_range(self, inv):
        rows = inv.run("store", "probe", "select_range",
                       None, None, True, 2)
        assert [r["id"] for r in rows] == [2, 4]

    @pytest.mark.parametrize("where, ids", [
        (ALWAYS, [1, 2, 3, 4]),
        (col("price").between(9.5, 14.0), [1, 4]),
        (col("category").in_(["toys", "games"]), [3, 4]),
        (~(col("category") == "tools"), [3, 4]),
        ((col("stock") == 0) | (col("price") < 5.0), [2, 3]),
        ((col("category") == "toys") & (col("stock") > 2), [3]),
        (col("category") == "games", []),
    ], ids=["all", "between", "in", "not", "or", "hash-probe-and-residual",
            "no-match"])
    def test_select_returns_matches_in_pk_order(self, inv, where, ids):
        rows = inv.run("store", "probe", "select", where)
        assert [r["id"] for r in rows] == ids

    def test_full_scan_limit_takes_lowest_keys(self, inv):
        rows = inv.run("store", "probe", "select_kw", {"limit": 2})
        assert [r["id"] for r in rows] == [1, 2]

    def test_full_scan_reverse_with_predicate(self, inv):
        rows = inv.run("store", "probe", "select_kw", {
            "where": col("stock") > 0, "reverse": True})
        assert [r["id"] for r in rows] == [4, 3, 1]

    def test_explicit_hash_index_probe(self, inv):
        rows = inv.run("store", "probe", "select_kw", {
            "index": "by_category", "low": ("toys",), "high": ("toys",)})
        assert [r["id"] for r in rows] == [3, 4]

    def test_hash_index_range_is_refused(self, inv):
        with pytest.raises(TransactionAbort, match="equality only"):
            inv.run("store", "probe", "select_kw", {
                "index": "by_category", "low": ("tools",),
                "high": ("toys",)})

    def test_ordered_range_filters_with_predicate(self, inv):
        rows = inv.run("store", "probe", "select_kw", {
            "where": col("stock") > 0, "index": "by_price",
            "low": (5.0,), "high": (20.0,)})
        assert [r["id"] for r in rows] == [1, 4]

    def test_ordered_range_open_below(self, inv):
        rows = inv.run("store", "probe", "select_kw", {
            "index": "by_price", "high": (10.0,)})
        assert [r["id"] for r in rows] == [3, 1]

    def test_multi_lookup_aligned_with_keys(self, inv):
        rows = inv.run("store", "probe", "multi_lookup", [3, 99, (1,)])
        assert [r and r["id"] for r in rows] == [3, None, 1]

    def test_multi_lookup_equals_lookups(self, inv):
        keys = [4, 2, 4, 7]
        rows = inv.run("store", "probe", "multi_lookup", keys)
        assert rows == [inv.run("store", "probe", "lookup", k)
                        for k in keys]

    def test_unknown_table_aborts_naming_known_ones(self, inv):
        with pytest.raises(TransactionAbort,
                           match="no table 'nope'.*known tables: items"):
            inv.run("store", "probe", "missing_table")

    def test_returned_images_are_copies(self, inv):
        row = inv.run("store", "mutate_result", 1)
        assert row == {"id": 1, "category": "tools", "price": 1.5,
                       "stock": 3}
        assert inv.run("store", "probe", "lookup", 1) == row


class TestMutations:
    def test_insert_and_lookup(self, inv):
        inv.run("store", "probe", "insert",
                {"id": 9, "category": "toys", "price": 1.0,
                 "stock": 1})
        assert inv.run("store", "probe", "lookup", 9)["price"] == 1.0

    def test_update_returns_new_image(self, inv):
        row = inv.run("store", "probe", "update", 1, {"stock": 10})
        assert row["stock"] == 10

    def test_delete(self, inv):
        inv.run("store", "probe", "delete", 1)
        assert inv.run("store", "probe", "lookup", 1) is None

    def test_update_missing_aborts_txn(self, inv):
        with pytest.raises(TransactionAbort):
            inv.run("store", "probe", "update", 99, {"stock": 1})

    def test_update_keeps_other_columns(self, inv):
        inv.run("store", "probe", "update", (4,), {"price": 15.0})
        assert inv.run("store", "probe", "lookup", 4) == {
            "id": 4, "category": "toys", "price": 15.0, "stock": 2}

    def test_update_rows_a_predicate_selects(self, inv):
        assert inv.run("store", "restock",
                       col("category") == "tools", 5) == 2
        stock = {r["id"]: r["stock"]
                 for r in inv.table_rows("store", "items")}
        assert stock == {1: 8, 2: 5, 3: 7, 4: 2}
        assert inv.run("store", "probe", "select",
                       col("stock") < 5) == [
            {"id": 4, "category": "toys", "price": 14.0, "stock": 2}]

    def test_delete_rows_a_predicate_selects(self, inv):
        assert inv.run("store", "clear", col("price") > 10.0) == 2
        assert sorted(r["id"] for r in
                      inv.table_rows("store", "items")) == [1, 3]
        assert inv.run("store", "clear", col("price") > 10.0) == 0

    def test_own_insert_visible_in_same_txn(self, inv):
        row = {"id": 5, "category": "toys", "price": 2.0, "stock": 1}
        selected, images = inv.run(
            "store", "write_then_read", [("insert", row)],
            col("category") == "toys")
        assert selected == [3, 4, 5]
        assert images == {5: row}

    def test_own_update_moves_row_into_selection(self, inv):
        selected, images = inv.run(
            "store", "write_then_read",
            [("update", 1, {"category": "toys"})],
            col("category") == "toys")
        assert selected == [1, 3, 4]
        assert images[1]["category"] == "toys"

    def test_own_update_moves_row_out_of_selection(self, inv):
        selected, __ = inv.run(
            "store", "write_then_read",
            [("update", 3, {"category": "tools"})],
            col("category") == "toys")
        assert selected == [4]

    def test_own_delete_hidden_in_same_txn(self, inv):
        selected, images = inv.run(
            "store", "write_then_read", [("delete", 2)], ALWAYS)
        assert selected == [1, 3, 4]
        assert images == {2: None}

    def test_delete_then_insert_replaces_row(self, inv):
        row = {"id": 2, "category": "games", "price": 3.0, "stock": 9}
        __, images = inv.run("store", "write_then_read",
                             [("delete", 2), ("insert", row)])
        assert images == {2: row}
        assert inv.run("store", "probe", "lookup", 2) == row

    def test_insert_then_delete_leaves_nothing(self, inv):
        row = {"id": 6, "category": "toys", "price": 3.0, "stock": 9}
        __, images = inv.run("store", "write_then_read",
                             [("insert", row), ("delete", 6)])
        assert images == {6: None}
        assert inv.run("store", "probe", "lookup", 6) is None
        assert len(inv.table_rows("store", "items")) == 4

    def test_insert_then_update_commits_merged_image(self, inv):
        row = {"id": 7, "category": "toys", "price": 3.0, "stock": 9}
        inv.run("store", "write_then_read",
                [("insert", row), ("update", 7, {"stock": 0})])
        assert inv.run("store", "probe", "lookup", 7) == dict(row, stock=0)

    @pytest.mark.parametrize("steps, message", [
        ([("insert", {"id": 1, "category": "toys", "price": 1.0,
                      "stock": 1})], "duplicate key"),
        ([("insert", {"id": 8, "category": "toys", "price": 1.0,
                      "stock": 1}),
          ("insert", {"id": 8, "category": "toys", "price": 1.0,
                      "stock": 1})], "duplicate key"),
        ([("delete", 99)], "delete of missing key"),
        ([("delete", 1), ("delete", 1)], "delete of missing key"),
        ([("delete", 1), ("update", 1, {"stock": 0})],
         "update of missing key"),
        ([("update", 1, {"colour": "red"})], "colour"),
        ([("update", 1, {"id": 5})], "cannot update primary key"),
        ([("insert", {"id": 8, "category": "toys", "price": 1.0,
                      "stock": 1, "colour": "red"})], "unknown columns"),
    ], ids=["committed-duplicate", "own-duplicate", "delete-missing",
            "double-delete", "update-after-delete", "unknown-column",
            "update-primary-key", "insert-unknown-column"])
    def test_refused_write_aborts_and_changes_nothing(self, inv, steps,
                                                      message):
        before = inv.table_rows("store", "items")
        with pytest.raises(TransactionAbort, match=message):
            inv.run("store", "write_then_read", steps)
        assert inv.table_rows("store", "items") == before

    def test_user_abort_discards_writes(self, inv):
        before = inv.table_rows("store", "items")
        with pytest.raises(TransactionAbort, match="out of stock"):
            inv.run("store", "write_then_abort", [
                ("insert", {"id": 9, "category": "toys", "price": 1.0,
                            "stock": 1}),
                ("update", 1, {"stock": 0}),
                ("delete", 3),
            ], "out of stock")
        assert inv.table_rows("store", "items") == before


class TestUtilities:
    def test_meta(self, inv):
        meta = inv.run("store", "probe", "meta")
        assert meta["name"] == "store"
        assert meta["now"] >= 0.0

    def test_rng_deterministic_per_txn(self, inv):
        first = inv.run("store", "probe", "rng")
        second = inv.run("store", "probe", "rng")
        # Different transactions draw different streams...
        assert first != second
        # ...but the same txn id on a fresh database reproduces.
        other = ReactorDatabase(shared_nothing(1),
                                [("store", INVENTORY)])
        other.load("store", "items",
                   [{"id": 1, "category": "t", "price": 1.0,
                     "stock": 1}])
        assert other.run("store", "probe", "rng") == first

    def test_compute_advances_virtual_time(self, inv):
        before, after = inv.run("store", "timed_compute", 250.0)
        assert after - before >= 250.0
