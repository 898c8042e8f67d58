"""Unit tests of the multi-version storage engine.

Version chains, the visibility rule, watermark-driven GC, copy-free
installation, and the table-level snapshot read surface (a table owns
its record map) — exercised directly, below the runtime.
"""

from __future__ import annotations

from repro.relational import IndexSpec, float_col, int_col, make_schema
from repro.relational.table import Table
from repro.storage import (
    RecordVersion,
    StorageCoordinator,
    VersionedRecord,
)


def _record(value: float, tid: int) -> VersionedRecord:
    return VersionedRecord((1,), {"id": 1, "v": value}, tid)


class TestVersionChains:
    def test_install_without_watermark_keeps_no_history(self):
        record = _record(1.0, 5)
        kept, pruned = record.install({"id": 1, "v": 2.0}, 10)
        assert (kept, pruned) == (0, 0)
        assert record.prev is None
        assert record.tid == 10

    def test_install_with_watermark_pushes_version(self):
        record = _record(1.0, 5)
        kept, __ = record.install({"id": 1, "v": 2.0}, 10,
                                  keep_watermark=5)
        assert kept == 1
        assert isinstance(record.prev, RecordVersion)
        assert record.prev.tid == 5
        assert record.prev.value["v"] == 1.0

    def test_visibility_walks_to_newest_qualifying_version(self):
        record = _record(1.0, 5)
        record.install({"id": 1, "v": 2.0}, 10, keep_watermark=1)
        record.install({"id": 1, "v": 3.0}, 20, keep_watermark=1)
        assert record.visible_at(25)["v"] == 3.0
        assert record.visible_at(15)["v"] == 2.0
        assert record.visible_at(7)["v"] == 1.0
        image, tid = record.version_at(3)
        assert image is None and tid == 0

    def test_visibility_returns_copies(self):
        record = _record(1.0, 5)
        record.install({"id": 1, "v": 2.0}, 10, keep_watermark=1)
        image = record.visible_at(7)
        image["v"] = 99.0
        assert record.visible_at(7)["v"] == 1.0

    def test_tombstone_versions_hide_the_row(self):
        record = _record(1.0, 5)
        record.mark_deleted(10, keep_watermark=1)
        assert record.visible_at(7)["v"] == 1.0
        assert record.visible_at(15) is None
        # Revival through install: the tombstone joins the chain.
        record.install({"id": 1, "v": 4.0}, 20, keep_watermark=1)
        assert record.visible_at(12) is None
        assert record.visible_at(20)["v"] == 4.0

    def test_prune_chain_drops_below_watermark(self):
        record = _record(1.0, 5)
        for tid, v in ((10, 2.0), (20, 3.0), (30, 4.0)):
            record.install({"id": 1, "v": v}, tid, keep_watermark=1)
        assert record.chain_length() == 3
        # Watermark 20: version 20 still serves pinned snapshots, the
        # tid-5 and tid-10 versions are unreachable.
        dropped = record.prune_chain(20)
        assert dropped == 2
        assert record.visible_at(25)["v"] == 3.0
        assert record.visible_at(12) is None

    def test_prune_chain_none_drops_everything(self):
        record = _record(1.0, 5)
        record.install({"id": 1, "v": 2.0}, 10, keep_watermark=1)
        assert record.prune_chain(None) == 1
        assert record.prev is None

    def test_install_takes_ownership_without_copy(self):
        record = _record(1.0, 5)
        owned = {"id": 1, "v": 2.0}
        record.install(owned, 10)
        assert record.value is owned  # copy-free hot path


def _table() -> Table:
    schema = make_schema(
        "t", [int_col("id"), float_col("v")], ["id"],
        [IndexSpec("by_v", ("v",), ordered=True)])
    return Table(schema)


class TestTableVersioning:
    def test_read_as_of_is_the_table_level_rule(self):
        table = _table()
        record = _record(1.0, 5)
        table.records[(1,)] = record
        record.install({"id": 1, "v": 2.0}, 10, keep_watermark=1)
        assert table.read_as_of((1,), 7) == {"id": 1, "v": 1.0}
        assert table.read_as_of((1,), 10) == {"id": 1, "v": 2.0}
        assert table.read_as_of((2,), 10) is None

    def test_table_gc_counts_drops(self):
        table = _table()
        for key in (1, 2):
            record = VersionedRecord((key,), {"id": key, "v": 0.0}, 1)
            table.records[(key,)] = record
            record.install({"id": key, "v": 1.0}, 10, keep_watermark=1)
        assert table.live_version_count() == 2
        assert table.gc_versions(None) == 2
        assert table.live_version_count() == 0

    def test_standalone_table_keeps_no_history(self):
        table = _table()
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 2.0}, 10)
        assert table.live_version_count() == 0

    def test_coordinated_table_retains_versions_while_pinned(self):
        table = _table()
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        coordinator.pin(txn_id=99, snapshot_tid=5)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 2.0}, 10)
        assert table.live_version_count() == 1
        assert table.read_as_of((1,), 5) == {"id": 1, "v": 1.0}
        assert table.read_as_of((1,), 10) == {"id": 1, "v": 2.0}
        assert coordinator.stats.versions_created == 1
        # Unpin: the next install prunes down to nothing.
        coordinator.unpin(99)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 3.0}, 20)
        assert table.live_version_count() == 0
        assert coordinator.stats.versions_gced >= 1

    def test_rows_as_of_is_a_consistent_cut(self):
        table = _table()
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        table.load_row({"id": 2, "v": 1.0}, tid=5)
        coordinator.pin(txn_id=1, snapshot_tid=5)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 9.0}, 10)
        table.install_delete(table.get_record((2,)), 11)
        assert table.rows_as_of(5) == [{"id": 1, "v": 1.0},
                                       {"id": 2, "v": 1.0}]
        assert table.rows_as_of(11) == [{"id": 1, "v": 9.0}]

    def test_deleted_rows_stay_visible_to_older_snapshots(self):
        table = _table()
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        coordinator.pin(txn_id=1, snapshot_tid=5)
        table.install_delete(table.get_record((1,)), 10)
        assert table.get_record((1,)) is None  # invisible live
        assert table.read_as_of((1,), 5) == {"id": 1, "v": 1.0}
        assert table.read_as_of((1,), 10) is None

    def test_explicit_gc_sweep(self):
        table = _table()
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        coordinator.pin(txn_id=1, snapshot_tid=5)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 2.0}, 10)
        coordinator.unpin(1)
        # No further installs: the chain lingers until a sweep.
        assert table.live_version_count() == 1
        assert table.gc_versions(coordinator.keep_watermark()) == 1
        assert table.live_version_count() == 0

    def test_unversioned_table_holds_no_chain_set(self):
        table = _table()
        table.versioning = StorageCoordinator()
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        table.install_update(table.get_record((1,)),
                             {"id": 1, "v": 2.0}, 10)
        assert list(table.iter_chained()) == []
        assert table._chained is None

    def test_iter_chained_follows_retained_versions(self):
        table = _table()
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        table.load_row({"id": 1, "v": 1.0}, tid=5)
        table.load_row({"id": 2, "v": 1.0}, tid=5)
        coordinator.pin(txn_id=1, snapshot_tid=5)
        record = table.get_record((1,))
        table.install_update(record, {"id": 1, "v": 2.0}, 10)
        assert list(table.iter_chained()) == [record]
        table.gc_versions(None)
        assert list(table.iter_chained()) == []

    def test_keep_watermark_is_min_pinned(self):
        coordinator = StorageCoordinator()
        assert coordinator.keep_watermark() is None
        coordinator.pin(1, 30)
        coordinator.pin(2, 10)
        assert coordinator.keep_watermark() == 10
        coordinator.unpin(2)
        assert coordinator.keep_watermark() == 30

    def test_keep_watermark_is_scoped(self):
        """A replica-routed pin retains history only on its replica's
        shadows — primary installs keep nothing for it."""
        coordinator = StorageCoordinator()
        coordinator.pin(1, 10, scope="replica-A")
        assert coordinator.keep_watermark() is None
        assert coordinator.keep_watermark("replica-A") == 10
        assert coordinator.keep_watermark("replica-B") is None
        coordinator.pin(2, 30)
        assert coordinator.keep_watermark() == 30
        assert coordinator.keep_watermark("replica-A") == 10
