"""Two-phase locking: lock modes, NO_WAIT/WAIT_DIE policies, wounds,
phantom protection via structure locks, and the scheme table."""

import pytest

from repro.concurrency import (
    BUILTIN_CC_SCHEMES,
    ConcurrencyManager,
    PassthroughCC,
    coordinator,
    create_cc_scheme,
)
from repro.concurrency.locking import NO_WAIT, WAIT_DIE, LockingCC
from repro.concurrency.mvcc import SnapshotSession
from repro.concurrency.tid import EpochManager
from repro.errors import (
    DeadlockAvoidanceAbort,
    DeploymentError,
    LockConflictAbort,
    WoundAbort,
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


@pytest.fixture
def table():
    # "v" is indexed (updates changing it restructure by_v and take the
    # index's structure lock); "w" is not (updates to it need only the
    # record lock).
    schema = make_schema(
        "t", [int_col("id"), float_col("v"), float_col("w")], ["id"],
        [IndexSpec("by_v", ("v",), ordered=True)])
    table = Table(schema)
    for i in range(5):
        table.load_row({"id": i, "v": float(i), "w": 0.0})
    return table


@pytest.fixture
def nowait():
    return LockingCC(0, EpochManager(), policy="no_wait")


@pytest.fixture
def waitdie():
    return LockingCC(0, EpochManager(), policy="wait_die")


def commit(manager, session, now=1.0):
    return coordinator.commit([(manager, session)], now)


#: What each scheme name must build: the exact manager class, and the
#: conflict policy a 2PL entry binds.
SCHEME_TABLE = {
    "occ": (ConcurrencyManager, None),
    "2pl_nowait": (LockingCC, NO_WAIT),
    "2pl_waitdie": (LockingCC, WAIT_DIE),
    "none": (PassthroughCC, None),
}


class TestRegistry:
    @pytest.mark.parametrize("name", BUILTIN_CC_SCHEMES)
    def test_create(self, name):
        cls, policy = SCHEME_TABLE[name]
        manager = create_cc_scheme(name, 3, EpochManager())
        assert type(manager) is cls
        assert manager.container_id == 3
        if policy is not None:
            assert manager.policy == policy
            assert manager.locks.policy == policy

    def test_the_table_is_the_four_schemes(self):
        assert BUILTIN_CC_SCHEMES == tuple(SCHEME_TABLE)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DeploymentError):
            create_cc_scheme("clairvoyant", 0, EpochManager())


class TestSharedExclusive:
    def test_two_readers_coexist(self, table, nowait):
        s1 = nowait.begin_session(1)
        s2 = nowait.begin_session(2)
        assert s1.read(table, (1,))["v"] == 1.0
        assert s2.read(table, (1,))["v"] == 1.0
        assert commit(nowait, s1).committed
        assert commit(nowait, s2).committed

    def test_writer_blocks_reader(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        s2 = nowait.begin_session(2)
        with pytest.raises(LockConflictAbort):
            s2.read(table, (1,))

    def test_reader_blocks_writer(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.read(table, (1,))
        s2 = nowait.begin_session(2)
        with pytest.raises(LockConflictAbort):
            s2.update(table, (1,), {"v": 10.0})
        assert nowait.stats.lock_conflicts == 1

    def test_upgrade_when_sole_reader(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})  # S -> X on the same record
        assert commit(nowait, s1).committed
        assert table.get_record((1,)).value["v"] == 10.0

    def test_locks_released_after_commit(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        assert commit(nowait, s1).committed
        assert nowait.locks.held_count() == 0
        s2 = nowait.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(nowait, s2).committed

    def test_locks_released_after_abort(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        coordinator.abort([(nowait, s1)])
        assert nowait.locks.held_count() == 0
        assert table.get_record((1,)).value["v"] == 1.0

    def test_disjoint_writers_coexist(self, table, nowait):
        # Updates to a non-indexed column of different records need
        # only their record locks: no conflict.
        s1 = nowait.begin_session(1)
        s2 = nowait.begin_session(2)
        s1.update(table, (1,), {"w": 10.0})
        s2.update(table, (2,), {"w": 20.0})
        assert commit(nowait, s1).committed
        assert commit(nowait, s2).committed

    def test_indexed_column_writers_conflict_on_index(self, table,
                                                      nowait):
        # Changing an indexed key restructures the index, so even
        # disjoint-record writers conflict on its structure lock
        # (conservative, like OCC's per-index version check for scans).
        s1 = nowait.begin_session(1)
        s2 = nowait.begin_session(2)
        s1.update(table, (1,), {"v": 10.0})
        with pytest.raises(LockConflictAbort):
            s2.update(table, (2,), {"v": 20.0})


class TestPhantomProtection:
    def test_insert_conflicts_with_scan(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.scan(table, col("v") >= 0.0)  # S structure lock on table
        s2 = nowait.begin_session(2)
        with pytest.raises(LockConflictAbort):
            s2.insert(table, {"id": 100, "v": 100.0, "w": 0.0})

    def test_read_miss_guards_against_insert(self, table, nowait):
        s1 = nowait.begin_session(1)
        assert s1.read(table, (100,)) is None  # S structure lock
        s2 = nowait.begin_session(2)
        with pytest.raises(LockConflictAbort):
            s2.insert(table, {"id": 100, "v": 1.0, "w": 0.0})

    def test_concurrent_inserts_same_key_conflict(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.insert(table, {"id": 100, "v": 1.0, "w": 0.0})
        s2 = nowait.begin_session(2)
        with pytest.raises(LockConflictAbort):
            s2.insert(table, {"id": 101, "v": 2.0, "w": 0.0})  # table X lock held

    def test_index_scan_vs_key_change_update(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.scan(table, index="by_v", low=(0.0,), high=(10.0,))
        s2 = nowait.begin_session(2)
        # Changing v moves the row inside by_v: needs that index's
        # structure lock, which the scanner holds shared.
        with pytest.raises(LockConflictAbort):
            s2.update(table, (4,), {"v": 99.0})

    def test_serial_insert_then_scan_ok(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.insert(table, {"id": 100, "v": 100.0, "w": 0.0})
        assert commit(nowait, s1).committed
        s2 = nowait.begin_session(2)
        rows = s2.scan(table, col("v") >= 0.0).rows
        assert len(rows) == 6
        assert commit(nowait, s2).committed


class TestWaitDie:
    def test_younger_requester_dies(self, table, waitdie):
        s_old = waitdie.begin_session(1)
        s_old.update(table, (1,), {"v": 10.0})
        s_young = waitdie.begin_session(2)
        with pytest.raises(DeadlockAvoidanceAbort):
            s_young.update(table, (1,), {"v": 20.0})
        assert waitdie.stats.deadlock_avoidance == 1
        assert commit(waitdie, s_old).committed

    def test_older_requester_wounds_younger_holder(self, table, waitdie):
        s_young = waitdie.begin_session(2)
        s_young.update(table, (1,), {"v": 20.0})
        s_old = waitdie.begin_session(1)
        s_old.update(table, (1,), {"v": 10.0})  # wounds txn 2
        assert s_young.wounded
        assert waitdie.stats.wounds == 1
        # The victim aborts at its next data operation...
        with pytest.raises(WoundAbort):
            s_young.read(table, (0,))
        # ...or at commit-time validation.
        assert not commit(waitdie, s_young).committed
        # The wounder commits; the victim's write never installed.
        assert commit(waitdie, s_old).committed
        assert table.get_record((1,)).value["v"] == 10.0

    def test_wound_releases_all_victim_locks(self, table, waitdie):
        s_young = waitdie.begin_session(2)
        s_young.update(table, (1,), {"w": 20.0})
        s_young.read(table, (3,))
        s_old = waitdie.begin_session(1)
        s_old.update(table, (1,), {"w": 10.0})
        # The victim's unrelated read lock is gone too: a third, even
        # younger transaction can now write record 3.
        s3 = waitdie.begin_session(3)
        s3.update(table, (3,), {"w": 30.0})
        assert commit(waitdie, s3).committed
        assert commit(waitdie, s_old).committed

    def test_wound_grant_keeps_mutual_exclusion(self, table, waitdie):
        # Regression: wounding the sole holder empties (and drops) the
        # lock entry; the wounder's grant must land back in the lock
        # table, or a third transaction would see the record unlocked.
        s_young = waitdie.begin_session(2)
        s_young.update(table, (1,), {"w": 20.0})
        s_old = waitdie.begin_session(1)
        s_old.update(table, (1,), {"w": 10.0})  # wound + X grant
        s3 = waitdie.begin_session(3)
        with pytest.raises(DeadlockAvoidanceAbort):
            s3.update(table, (1,), {"w": 30.0})  # txn 1 still holds X
        assert commit(waitdie, s_old).committed
        assert table.get_record((1,)).value["w"] == 10.0

    def test_shared_locks_do_not_wound(self, table, waitdie):
        s_young = waitdie.begin_session(2)
        s_young.read(table, (1,))
        s_old = waitdie.begin_session(1)
        s_old.read(table, (1,))  # S + S: no conflict, no wound
        assert not s_young.wounded
        assert waitdie.stats.wounds == 0
        assert commit(waitdie, s_young).committed
        assert commit(waitdie, s_old).committed


class TestStatsAndValidation:
    def test_validations_counted(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        commit(nowait, s1)
        assert nowait.stats.validations == 1
        assert nowait.stats.validation_failures == 0

    def test_user_abort_counted(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        coordinator.abort([(nowait, s1)], "user")
        assert nowait.stats.user_aborts == 1

    def test_read_your_writes_under_2pl(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 99.0})
        assert s1.read(table, (1,))["v"] == 99.0
        s1.insert(table, {"id": 100, "v": 50.0, "w": 0.0})
        values = sorted(r["v"] for r in s1.scan(table,
                                                col("v") > 10.0).rows)
        assert values == [50.0, 99.0]

    def test_commit_tid_exceeds_read_versions(self, table, nowait):
        s1 = nowait.begin_session(1)
        s1.update(table, (1,), {"v": 5.0})
        out1 = commit(nowait, s1)
        s2 = nowait.begin_session(2)
        s2.read(table, (1,))
        s2.update(table, (2,), {"v": 6.0})
        out2 = commit(nowait, s2)
        assert out2.commit_tid > out1.commit_tid


class TestPlaceholderReclamation:
    def test_aborted_insert_leaves_no_tombstone(self, table, nowait):
        # Regression: buffer-time placeholders of aborted inserts must
        # not accumulate in Table._records forever.
        before = len(table)
        for i in range(50):
            s = nowait.begin_session(i + 1)
            s.insert(table, {"id": 1000 + i, "v": 1.0, "w": 0.0})
            coordinator.abort([(nowait, s)])
        assert len(table) == before
        assert nowait.locks.held_count() == 0

    def test_cancelled_insert_leaves_no_tombstone(self, table, nowait):
        before = len(table)
        s = nowait.begin_session(1)
        s.insert(table, {"id": 1000, "v": 1.0, "w": 0.0})
        s.delete(table, (1000,))  # insert + delete cancels out
        assert commit(nowait, s).committed
        assert len(table) == before

    def test_committed_insert_survives_reclamation(self, table, nowait):
        s = nowait.begin_session(1)
        s.insert(table, {"id": 1000, "v": 1.0, "w": 0.0})
        assert commit(nowait, s).committed
        assert table.get_record((1000,)) is not None

    def test_insert_revives_its_placeholder_under_a_pinned_snapshot(
            self, table, nowait):
        # A pristine placeholder already reads as "no row" at every
        # snapshot: reviving it in place keeps no version anyone could
        # read, where pushing its tombstone onto the chain would.
        old_tid = nowait.tids.next_tid(1.0)
        storage = StorageCoordinator()
        table.versioning = storage
        storage.pin(12, old_tid)
        s = nowait.begin_session(1)
        s.insert(table, {"id": 1000, "v": 1.0, "w": 0.0})
        placeholder = table.records[(1000,)]
        assert commit(nowait, s, now=2.0).committed
        record = table.get_record((1000,))
        assert record is placeholder and record.prev is None
        assert storage.stats.versions_created == 0
        stale = SnapshotSession(12, 0, snapshot_tid=old_tid)
        assert stale.read(table, (1000,)) is None
        current = SnapshotSession(13, 0, snapshot_tid=record.tid)
        assert current.read(table, (1000,))["v"] == 1.0

    def test_occ_aborted_insert_leaves_no_tombstone(self, table):
        from repro.concurrency.occ import ConcurrencyManager

        occ = ConcurrencyManager(0, EpochManager())
        before = len(table)
        # A stale read fails validation; the refused insert must leave
        # no record behind.
        s1 = occ.begin_session(1)
        s1.read(table, (1,))
        s1.insert(table, {"id": 1000, "v": 1.0, "w": 0.0})
        s2 = occ.begin_session(2)
        s2.update(table, (1,), {"w": 9.0})
        assert commit(occ, s2).committed
        assert not commit(occ, s1).committed
        assert len(table) == before
        assert (1000,) not in table.records


class TestPassthroughBestEffortInstall:
    def test_racing_unique_insert_loser_fully_dropped(self):
        # Under "none", the losing racer of a unique-index conflict
        # must be dropped atomically: not half-installed in _records
        # while absent from the index.
        schema = make_schema(
            "t", [int_col("id"), float_col("x")], ["id"],
            [IndexSpec("by_x", ("x",), ordered=True, unique=True)])
        table = Table(schema)
        cc = PassthroughCC(0, EpochManager())

        s1, s2 = cc.begin_session(1), cc.begin_session(2)
        s1.insert(table, {"id": 5, "x": 1.0})
        s2.insert(table, {"id": 6, "x": 1.0})  # same unique key
        assert coordinator.commit([(cc, s1)], 1.0).committed
        out2 = coordinator.commit([(cc, s2)], 2.0)
        assert out2.committed  # "none" commits; the write is dropped
        assert out2.writes == 0

        assert table.get_record((5,)) is not None
        assert table.get_record((6,)) is None  # loser left no row
        assert [r["id"] for r in table.rows()] == [5]
        assert table.index("by_x").lookup((1.0,)) == frozenset({(5,)})


class TestMultiContainer2PL:
    def test_atomic_across_containers(self):
        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        t0, t1 = Table(schema), Table(schema)
        t0.load_row({"id": 1, "v": 1.0})
        t1.load_row({"id": 1, "v": 1.0})
        m0 = LockingCC(0, EpochManager(), policy="wait_die")
        m1 = LockingCC(1, EpochManager(), policy="wait_die")

        s0, s1 = m0.begin_session(2), m1.begin_session(2)
        s0.update(t0, (1,), {"v": 10.0})
        s1.update(t1, (1,), {"v": 10.0})
        # An older transaction wounds the multi-container one in
        # container 1 before it commits.
        s_old = m1.begin_session(1)
        s_old.update(t1, (1,), {"v": 99.0})
        assert coordinator.commit([(m1, s_old)], 1.0).committed

        outcome = coordinator.commit([(m0, s0), (m1, s1)], 2.0)
        assert not outcome.committed
        # Atomicity: neither container applied the wounded writes.
        assert t0.get_record((1,)).value["v"] == 1.0
        assert t1.get_record((1,)).value["v"] == 99.0
        assert m0.locks.held_count() == 0
        assert m1.locks.held_count() == 0

    def test_doom_propagates_across_containers(self):
        # A transaction wounded in one container must stop acquiring
        # (and wounding healthy victims) in its other containers.
        class FakeRoot:
            doomed = False

        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        ta, tb = Table(schema), Table(schema)
        ta.load_row({"id": 1, "v": 1.0})
        tb.load_row({"id": 1, "v": 1.0})
        ma = LockingCC(0, EpochManager(), policy="wait_die")
        mb = LockingCC(1, EpochManager(), policy="wait_die")

        root = FakeRoot()
        t_a, t_b = ma.begin_session(5), mb.begin_session(5)
        t_a.owner = t_b.owner = root
        t_a.update(ta, (1,), {"v": 50.0})

        # A healthy, younger transaction holds a lock in container B.
        young = mb.begin_session(9)
        young.update(tb, (1,), {"v": 90.0})

        # An older transaction wounds T in container A.
        old = ma.begin_session(1)
        old.update(ta, (1,), {"v": 10.0})
        assert t_a.wounded and root.doomed

        # Doomed T must not wound the healthy younger holder in B.
        with pytest.raises(WoundAbort):
            t_b.update(tb, (1,), {"v": 50.0})
        assert not young.wounded
        assert mb.stats.wounds == 0
        assert commit(mb, young).committed
        assert commit(ma, old).committed

    def test_wound_of_already_doomed_victim_releases_local_locks(self):
        # Regression: wounding a victim that was already doomed in
        # another container must still free its locks *here*, or a
        # stale dead holder lingers in the lock table and spuriously
        # conflicts with later requesters.
        class FakeRoot:
            doomed = False

        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        ta, tb = Table(schema), Table(schema)
        ta.load_row({"id": 1, "v": 1.0})
        tb.load_row({"id": 1, "v": 1.0})
        ma = LockingCC(0, EpochManager(), policy="wait_die")
        mb = LockingCC(1, EpochManager(), policy="wait_die")

        root = FakeRoot()
        v_a, v_b = ma.begin_session(10), mb.begin_session(10)
        v_a.owner = v_b.owner = root
        v_a.update(ta, (1,), {"v": 50.0})
        v_b.read(tb, (1,))  # shared lock in container B

        old_a = ma.begin_session(1)
        old_a.update(ta, (1,), {"v": 10.0})  # wounds V in A
        assert root.doomed

        # An older txn in B conflicts with V's (stale) shared lock:
        # the wound there must release it even though V is already
        # doomed, and must not re-count the wound.
        p = mb.begin_session(2)
        p.update(tb, (1,), {"v": 20.0})
        assert commit(mb, p).committed
        assert ma.stats.wounds == 1 and mb.stats.wounds == 0

        # No dead holder left behind: a younger txn acquires cleanly.
        young = mb.begin_session(11)
        young.update(tb, (1,), {"v": 30.0})
        assert commit(mb, young).committed
        assert mb.stats.deadlock_avoidance == 0
        assert commit(ma, old_a).committed
