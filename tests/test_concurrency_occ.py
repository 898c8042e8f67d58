"""Silo-style OCC: read-your-writes, validation, phantoms, 2PC,
and multi-key reads against scalar reads."""

import pytest

from repro.concurrency import coordinator, create_cc_scheme
from repro.concurrency.base import ABORT_REASONS
from repro.concurrency.mvcc import SnapshotSession
from repro.concurrency.occ import ConcurrencyManager
from repro.concurrency.tid import EpochManager
from repro.errors import (
    CCAbort,
    DuplicateKeyError,
    RecordNotFound,
    SchemaError,
    ValidationAbort,
)
from repro.relational.predicate import col
from repro.relational.schema import (
    IndexSpec,
    float_col,
    int_col,
    make_schema,
)
from repro.relational.table import Table
from repro.storage.store import StorageCoordinator


def _table():
    schema = make_schema(
        "t", [int_col("id"), float_col("v")], ["id"],
        [IndexSpec("by_v", ("v",), ordered=True)])
    table = Table(schema)
    for i in range(5):
        table.load_row({"id": i, "v": float(i)})
    return table


@pytest.fixture
def table():
    return _table()


@pytest.fixture
def manager():
    return ConcurrencyManager(0, EpochManager())


def commit(manager, session, now=1.0):
    return coordinator.commit([(manager, session)], now)


class TestIntentImagesAreBornValidated:
    """Installation trusts the intent's image (no re-validation, no
    copy), so the record manager must be the gate — and must never
    hand that image out."""

    def test_invalid_writes_never_reach_the_write_set(self, table,
                                                      manager):
        s = manager.begin_session(1)
        with pytest.raises(SchemaError):
            s.insert(table, {"id": 100, "v": "not a float"})
        with pytest.raises(SchemaError):
            s.insert(table, {"id": 100, "v": 1.0, "extra": 1})
        with pytest.raises(SchemaError):
            s.update(table, (1,), {"v": "not a float"})
        with pytest.raises(SchemaError):
            s.update(table, (1,), {"id": 7})
        with pytest.raises(SchemaError):
            s.update(table, (1,), {"nope": 1.0})
        assert s.write_count == 0

    def test_update_returns_a_copy_of_the_intent_image(self, table,
                                                       manager):
        s = manager.begin_session(1)
        returned = s.update(table, (1,), {"v": 10.0})
        returned["v"] = "scribbled on by the procedure"
        merged = s.update(table, (1,), {"v": 11.0})
        merged["v"] = "and again"
        assert commit(manager, s).committed
        assert table.get_record((1,)).value == {"id": 1, "v": 11.0}

    def test_committed_image_is_the_intent_image(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (2,), {"v": 20.0})
        s.insert(table, {"id": 100, "v": 1.0})
        images = {i.pk: i.new_value for i in s.sorted_intents()}
        assert commit(manager, s).committed
        for pk, image in images.items():
            assert table.get_record(pk).value is image


class TestReadYourWrites:
    def test_read_sees_own_update(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 99.0})
        row = s.read(table, (1,))
        assert row["v"] == 99.0
        assert table.get_record((1,)).value["v"] == 1.0  # not yet

    def test_read_sees_own_insert(self, table, manager):
        s = manager.begin_session(1)
        s.insert(table, {"id": 100, "v": 1.0})
        row = s.read(table, (100,))
        assert row["v"] == 1.0

    def test_read_sees_own_delete(self, table, manager):
        s = manager.begin_session(1)
        s.delete(table, (1,))
        row = s.read(table, (1,))
        assert row is None

    def test_scan_applies_overlay(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 99.0})
        s.delete(table, (2,))
        s.insert(table, {"id": 100, "v": 50.0})
        rows = s.scan(table, col("v") > 10.0).rows
        values = sorted(r["v"] for r in rows)
        assert values == [50.0, 99.0]

    def test_insert_then_delete_cancels(self, table, manager):
        s = manager.begin_session(1)
        s.insert(table, {"id": 100, "v": 1.0})
        s.delete(table, (100,))
        assert s.read(table, (100,)) is None
        assert s.write_count == 0

    def test_delete_then_insert_becomes_update(self, table, manager):
        s = manager.begin_session(1)
        s.delete(table, (1,))
        s.insert(table, {"id": 1, "v": 42.0})
        outcome = commit(manager, s)
        assert outcome.committed
        assert table.get_record((1,)).value["v"] == 42.0

    def test_duplicate_insert_detected_early(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(DuplicateKeyError):
            s.insert(table, {"id": 1, "v": 0.0})

    def test_update_missing_raises(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(RecordNotFound):
            s.update(table, (999,), {"v": 0.0})

    def test_delete_missing_raises(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(RecordNotFound):
            s.delete(table, (999,))


class TestValidation:
    def test_stale_read_aborts(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s2).committed
        outcome = commit(manager, s1)
        assert not outcome.committed
        assert table.get_record((1,)).value["v"] == 20.0

    def test_read_only_vs_disjoint_write_both_commit(self, table,
                                                     manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s2 = manager.begin_session(2)
        s2.update(table, (2,), {"v": 20.0})
        assert commit(manager, s2).committed
        assert commit(manager, s1).committed

    def test_write_write_second_aborts(self, table, manager):
        s1 = manager.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s1).committed
        assert not commit(manager, s2).committed

    def test_concurrent_inserts_same_key(self, table, manager):
        s1 = manager.begin_session(1)
        s1.insert(table, {"id": 100, "v": 1.0})
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 2.0})
        assert commit(manager, s1).committed
        assert not commit(manager, s2).committed
        assert table.get_record((100,)).value["v"] == 1.0

    def test_committed_duplicate_behind_a_stale_read_is_cc_abort(
            self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 10.0})
        s2.insert(table, {"id": 100, "v": 1.0})
        assert commit(manager, s2).committed
        with pytest.raises(ValidationAbort, match=r"stale read of \(1,\)"):
            s1.insert(table, {"id": 100, "v": 2.0})
        assert manager.stats.validation_failures == 1

    def test_other_duplicates_stay_duplicate_key_errors(self, table,
                                                        manager):
        s1 = manager.begin_session(1)
        s1.read(table, (2,))  # stays fresh
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 1.0})
        assert commit(manager, s2).committed
        with pytest.raises(DuplicateKeyError):
            s1.insert(table, {"id": 100, "v": 2.0})
        s3 = manager.begin_session(3)
        s3.read(table, (1,))
        s3.insert(table, {"id": 200, "v": 1.0})
        s4 = manager.begin_session(4)
        s4.update(table, (1,), {"v": 10.0})
        assert commit(manager, s4).committed
        with pytest.raises(DuplicateKeyError, match="own write"):
            s3.insert(table, {"id": 200, "v": 2.0})
        assert manager.stats.validation_failures == 0

    def test_phantom_insert_aborts_scan(self, table, manager):
        s1 = manager.begin_session(1)
        s1.scan(table, col("v") >= 0.0)
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 100.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_read_miss_guards_against_insert(self, table, manager):
        s1 = manager.begin_session(1)
        assert s1.read(table, (100,)) is None
        s1.update(table, (0,), {"v": 5.0})
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 1.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_scan_update_conflict_detected(self, table, manager):
        # An update that changes whether a row matches a predicate
        # must invalidate a concurrent scan (conservative read-set
        # registration of all examined candidates).
        s1 = manager.begin_session(1)
        s1.scan(table, col("v") > 100.0)  # matches nothing, examines all
        s1.update(table, (0,), {"v": -1.0})
        s2 = manager.begin_session(2)
        s2.update(table, (3,), {"v": 500.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_validation_failure_installs_nothing(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})
        s1.insert(table, {"id": 100, "v": 1.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        won = commit(manager, s2)
        assert won.committed
        assert not commit(manager, s1).committed
        # Neither the refused insert nor the refused update landed.
        assert (100,) not in table.records
        record = table.get_record((1,))
        assert (record.value["v"], record.tid) == (20.0, won.commit_tid)

    def test_commit_tids_monotonic(self, table, manager):
        tids = []
        for i in range(3):
            s = manager.begin_session(i)
            s.update(table, (1,), {"v": float(i)})
            outcome = commit(manager, s, now=float(i + 1))
            tids.append(outcome.commit_tid)
        assert tids == sorted(tids)
        assert len(set(tids)) == 3

    def test_commit_tid_exceeds_read_versions(self, table, manager):
        s1 = manager.begin_session(1)
        s1.update(table, (1,), {"v": 5.0})
        out1 = commit(manager, s1)
        s2 = manager.begin_session(2)
        s2.read(table, (1,))
        s2.update(table, (2,), {"v": 6.0})
        out2 = commit(manager, s2)
        assert out2.commit_tid > out1.commit_tid


class TestCoordinator:
    def test_multi_container_atomic_abort(self, manager):
        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        t0, t1 = Table(schema), Table(schema)
        t0.load_row({"id": 1, "v": 1.0})
        t1.load_row({"id": 1, "v": 1.0})
        m0 = ConcurrencyManager(0, EpochManager())
        m1 = ConcurrencyManager(1, EpochManager())

        s_multi0 = m0.begin_session(1)
        s_multi1 = m1.begin_session(1)
        s_multi0.update(t0, (1,), {"v": 10.0})
        s_multi1.update(t1, (1,), {"v": 10.0})

        # A competing single-container commit invalidates container 1.
        s_other = m1.begin_session(2)
        s_other.update(t1, (1,), {"v": 99.0})
        assert coordinator.commit([(m1, s_other)], 1.0).committed

        outcome = coordinator.commit(
            [(m0, s_multi0), (m1, s_multi1)], 2.0)
        assert not outcome.committed
        # Atomicity: neither container applied the multi-write.
        assert t0.get_record((1,)).value["v"] == 1.0
        assert t1.get_record((1,)).value["v"] == 99.0

    def test_multi_container_commit_applies_everywhere(self):
        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        t0, t1 = Table(schema), Table(schema)
        t0.load_row({"id": 1, "v": 1.0})
        t1.load_row({"id": 1, "v": 1.0})
        m0 = ConcurrencyManager(0, EpochManager())
        m1 = ConcurrencyManager(1, EpochManager())
        s0, s1 = m0.begin_session(1), m1.begin_session(1)
        s0.update(t0, (1,), {"v": 7.0})
        s1.update(t1, (1,), {"v": 8.0})
        outcome = coordinator.commit([(m0, s0), (m1, s1)], 1.0)
        assert outcome.committed
        assert outcome.containers == 2
        assert t0.get_record((1,)).value["v"] == 7.0
        assert t1.get_record((1,)).value["v"] == 8.0

    def test_explicit_abort_discards_writes(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 10.0})
        coordinator.abort([(manager, s)])
        assert table.get_record((1,)).value["v"] == 1.0

    def test_needs_participants(self):
        with pytest.raises(ValueError):
            coordinator.commit([], 1.0)

    @pytest.mark.parametrize("failing", [0, 1, 2],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("scheme", ["occ", "2pl_nowait"])
    def test_failed_validation_rolls_back_every_participant(
            self, scheme, failing):
        """One rollback loop serves the validated prefix, the failing
        participant and the unvalidated rest: whichever of three
        containers refuses, none keeps a lock, a placeholder or a
        write, and only the refusing one counts an abort."""
        epochs = EpochManager()
        managers = [create_cc_scheme(scheme, cid, epochs)
                    for cid in range(3)]
        tables = [_table() for __ in managers]

        def writer(txn_id):
            sessions = [m.begin_session(txn_id) for m in managers]
            for session, table in zip(sessions, tables):
                session.read(table, (2,))
                session.update(table, (1,), {"v": 10.0 * txn_id})
                session.insert(table, {"id": 100, "v": 1.0 * txn_id})
            return list(zip(managers, sessions))

        participants = writer(1)
        manager, table = managers[failing], tables[failing]
        if scheme == "occ":
            # A rival installs over the victim's read.
            rival = manager.begin_session(9)
            rival.update(table, (2,), {"v": -1.0})
            assert coordinator.commit([(manager, rival)], 1.0).committed
        else:
            # 2PL validation re-checks only the doom flag.
            manager.locks.wound(participants[failing][1])

        outcome = coordinator.commit(participants, 2.0)
        assert not outcome.committed
        assert (outcome.commit_tid, outcome.containers,
                outcome.writes) == (0, 3, 0)
        for cid, (manager, table) in enumerate(zip(managers, tables)):
            # No partial install: only the rival's write is newer than
            # the load, and no inserted key (or placeholder) is left.
            rival_write = {(2,)} if scheme == "occ" and cid == failing \
                else set()
            assert {pk for pk, record in table.records.items()
                    if record.tid != 0} == rival_write
            if scheme != "occ":
                assert manager.locks.held_count() == 0
            assert (100,) not in table.records
            assert table.get_record((1,)).value["v"] == 1.0
            # Validation stopped at the refusal, which is counted
            # there and nowhere else.
            rivals = 1 if scheme == "occ" and cid == failing else 0
            assert manager.stats.validations == \
                rivals + (1 if cid <= failing else 0)
            assert sum(getattr(manager.stats, name)
                       for name in ABORT_REASONS.values()) == \
                (1 if cid == failing else 0)

        assert coordinator.commit(writer(2), 3.0).committed
        for table in tables:
            assert table.get_record((1,)).value["v"] == 20.0
            assert table.get_record((100,)).value["v"] == 2.0

    def test_validation_stats_counted(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 1.5})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 2.5})
        commit(manager, s2)
        commit(manager, s1)
        assert manager.stats.validations == 2
        assert manager.stats.validation_failures == 1


# ----------------------------------------------------------------------
# multi_read vs scalar reads on the session surface
# ----------------------------------------------------------------------


class TestMultiReadEquivalence:
    def test_matches_scalar_reads_including_overlay(self, table):
        manager = ConcurrencyManager(0, EpochManager())
        pks = [(1,), (99,), (3,), (4,), (100,), (0,)]

        scalar = manager.begin_session(1)
        scalar.update(table, (3,), {"v": 33.0})
        scalar.delete(table, (4,))
        scalar.insert(table, {"id": 100, "v": 50.0})
        scalar_rows = [scalar.read(table, pk) for pk in pks]

        vector = manager.begin_session(2)
        vector.update(table, (3,), {"v": 33.0})
        vector.delete(table, (4,))
        vector.insert(table, {"id": 100, "v": 50.0})
        vector_rows = vector.multi_read(table, pks)

        assert vector_rows == scalar_rows
        # Identical validation footprint: same observed records, same
        # node checks for the misses.
        assert set(vector._reads) == set(scalar._reads)
        assert vector._node_checks.keys() == scalar._node_checks.keys()

    def test_footprint_validates_like_scalar_reads(self, table):
        manager = ConcurrencyManager(0, EpochManager())
        session = manager.begin_session(1)
        rows = session.multi_read(table, [(0,), (1,), (2,)])
        assert [r["v"] for r in rows] == [0.0, 1.0, 2.0]

        # A conflicting install invalidates the batched read set just
        # as it would invalidate scalar reads.
        writer = manager.begin_session(2)
        writer.update(table, (1,), {"v": 9.0})
        assert coordinator.commit([(manager, writer)], 1.0).committed

        with pytest.raises(CCAbort):
            manager.validate(session)

    def test_snapshot_session_matches_scalar_reads(self, table):
        manager = ConcurrencyManager(0, EpochManager())
        writer = manager.begin_session(1)
        writer.update(table, (2,), {"v": 77.0})
        tid = coordinator.commit([(manager, writer)], 1.0).commit_tid

        pks = [(0,), (2,), (99,)]
        scalar = SnapshotSession(10, 0, snapshot_tid=tid)
        scalar_rows = [scalar.read(table, pk) for pk in pks]

        vector = SnapshotSession(11, 0, snapshot_tid=tid)
        vector_rows = vector.multi_read(table, pks)

        assert vector_rows == scalar_rows
        assert vector_rows[1]["v"] == 77.0
        assert vector.snapshot_read_count == scalar.snapshot_read_count

    def test_stale_snapshot_ignores_newer_versions_batched(self, table):
        manager = ConcurrencyManager(0, EpochManager())
        old_tid = manager.tids.next_tid(1.0)
        # Pin the old snapshot so the install retains the superseded
        # version instead of GC-ing it.
        storage = StorageCoordinator()
        table.versioning = storage
        storage.pin(12, old_tid)

        writer = manager.begin_session(1)
        writer.update(table, (2,), {"v": 77.0})
        assert coordinator.commit([(manager, writer)], 2.0).committed

        stale = SnapshotSession(12, 0, snapshot_tid=old_tid)
        rows = stale.multi_read(table, [(2,)])
        assert rows[0]["v"] == 2.0
