"""Integration tests of multi-version snapshot reads.

The storage engine threaded through the runtime: abort-free snapshot
reads under contention, transaction-consistent cuts, the
``snapshot_reads`` deployment toggle on every scheme, read-only
enforcement on all mutation paths, replica bounded-staleness reads,
recovery and migration over the versioned engine, and the black-box
snapshot-isolation certificate over the history recorder's snapshot
reads (including tamper rejection, and snapshot readers judged in the
one serialization graph with the writers).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.concurrency.base import CCSession
from repro.concurrency.mvcc import SnapshotSession
from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    DeploymentConfig,
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.core.reactor import ReactorType
from repro.durability.checkpoint import take_checkpoint
from repro.durability.recovery import enable_durability, recover
from repro.errors import DeploymentError, ReadOnlyViolation
from repro.formal.audit import (
    attach_recorder,
    certify_migration,
    certify_snapshot_isolation,
)
from repro.formal.ops import WRITE
from repro.formal.serializability import serialization_order
from repro.relational import float_col, make_schema, str_col
from repro.replication import ReplicationConfig
from repro.workloads import smallbank


def _kv_schema():
    return [make_schema("kv", [str_col("k"), float_col("v")], ["k"])]


PAIR = ReactorType("Pair", _kv_schema)


@PAIR.procedure(read_only=True)
def get_v(ctx):
    return ctx.lookup("kv", ctx.my_name())["v"]


@PAIR.procedure(read_only=True)
def get_slow(ctx):
    """Stall, then read — keeps the caller blocked remotely for long
    enough that a writer can slip a commit into its window."""
    yield ctx.compute(500.0)
    return ctx.lookup("kv", ctx.my_name())["v"]


@PAIR.procedure(read_only=True)
def slow_sum(ctx, other):
    """Read self, stall, read the partner — a long validated read set
    under OCC, a stable snapshot under snapshot reads."""
    mine = ctx.lookup("kv", ctx.my_name())["v"]
    yield ctx.compute(500.0)
    fut = yield ctx.call(other, "get_v")
    theirs = yield ctx.get(fut)
    return mine + theirs


@PAIR.procedure(read_only=True)
def double_check(ctx, other):
    """Read self, block on the partner's slow read, read self again —
    the second read must still resolve at the pinned snapshot even if
    a writer committed (or a failover re-homed the tables) in
    between."""
    first = ctx.lookup("kv", ctx.my_name())["v"]
    fut = yield ctx.call(other, "get_slow")
    theirs = yield ctx.get(fut)
    second = ctx.lookup("kv", ctx.my_name())["v"]
    return first + second + theirs


@PAIR.procedure(read_only=True)
def sum_with_slow_partner(ctx, other):
    """Read self, then block on the partner's slow read — the
    executor is released, so a writer commits inside the window."""
    mine = ctx.lookup("kv", ctx.my_name())["v"]
    fut = yield ctx.call(other, "get_slow")
    theirs = yield ctx.get(fut)
    return mine + theirs


@PAIR.procedure
def set_v(ctx, value):
    ctx.update("kv", ctx.my_name(), {"v": value})


@PAIR.procedure
def set_both(ctx, other, value):
    ctx.update("kv", ctx.my_name(), {"v": value})
    fut = yield ctx.call(other, "set_v", value)
    yield ctx.get(fut)


@PAIR.procedure(read_only=True)
def bad_update(ctx):
    ctx.update("kv", ctx.my_name(), {"v": -1.0})


@PAIR.procedure(read_only=True)
def bad_insert(ctx):
    ctx.insert("kv", {"k": "rogue", "v": -1.0})


@PAIR.procedure(read_only=True)
def bad_delete(ctx):
    ctx.delete("kv", ctx.my_name())


def _pair_db(scheme: str, snapshot_reads: bool = False,
             replication=None) -> ReactorDatabase:
    database = ReactorDatabase(
        shared_nothing(2, cc_scheme=scheme,
                       snapshot_reads=snapshot_reads,
                       replication=replication),
        [("a", PAIR), ("b", PAIR)])
    database.load("a", "kv", [{"k": "a", "v": 1.0}])
    database.load("b", "kv", [{"k": "b", "v": 2.0}])
    return database


def _snapshot_reads(recorder):
    """``(index, op)`` of every recorded snapshot read, in order."""
    return [(i, e) for i, e in enumerate(recorder.history.events)
            if getattr(e, "snapshot", None) is not None]


def _submit_collect(database, outcomes, key, reactor, proc, *args):
    def on_done(root, committed, reason, result):
        outcomes[key] = (committed, reason, result)
    database.submit(reactor, proc, *args, on_done=on_done)


def _overlap_reader_with_writer(database):
    """Start a slow read-only root, commit a conflicting write inside
    its window, run to completion; returns the outcome map."""
    outcomes: dict = {}
    _submit_collect(database, outcomes, "reader", "a", "slow_sum", "b")
    database.scheduler.at(
        100.0, _submit_collect, database, outcomes, "writer",
        "a", "set_both", "b", 7.0)
    database.scheduler.run()
    return outcomes


def _overlap_blocked_reader_with_writer(database):
    """The reader blocks on a slow remote read of ``b`` while a writer
    overwrites the already-read ``a`` and fully commits."""
    outcomes: dict = {}
    _submit_collect(database, outcomes, "reader", "a",
                    "sum_with_slow_partner", "b")
    database.scheduler.at(
        100.0, _submit_collect, database, outcomes, "writer",
        "a", "set_v", 7.0)
    database.scheduler.run()
    return outcomes


class TestSnapshotReadsUnderContention:
    def test_occ_reader_aborts_on_overlapping_writer(self):
        database = _pair_db("occ")
        outcomes = _overlap_blocked_reader_with_writer(database)
        assert outcomes["writer"][0]
        assert not outcomes["reader"][0]
        assert database.telemetry.registry.value(
            "storage_read_only_aborts_total") == 1

    def test_snapshot_reader_survives_the_same_interleaving(self):
        database = _pair_db("occ", snapshot_reads=True)
        outcomes = _overlap_blocked_reader_with_writer(database)
        assert outcomes["writer"][0]
        committed, __, result = outcomes["reader"]
        assert committed
        assert result == pytest.approx(3.0)  # pre-writer snapshot

    def test_snapshot_reader_commits_on_consistent_snapshot(self):
        database = _pair_db("occ", snapshot_reads=True)
        outcomes = _overlap_reader_with_writer(database)
        assert outcomes["writer"][0]
        committed, __, result = outcomes["reader"]
        assert committed
        # The pinned snapshot predates the writer: both reads resolve
        # to the old images (1+2), never a torn 1+7 or 7+2.
        assert result == pytest.approx(3.0)
        metric = database.telemetry.registry.value
        assert metric("storage_read_only_aborts_total") == 0
        assert metric("storage_snapshot_roots_total") == 1
        # Unpinned at completion.
        assert metric("storage_pinned_snapshots") == 0

    @pytest.mark.parametrize("scheme", ["occ", "2pl_nowait",
                                        "2pl_waitdie", "none"])
    def test_snapshot_reads_toggle_works_under_any_scheme(self, scheme):
        database = _pair_db(scheme, snapshot_reads=True)
        outcomes = _overlap_reader_with_writer(database)
        assert outcomes["writer"][0]
        committed, __, result = outcomes["reader"]
        assert committed
        assert result == pytest.approx(3.0)
        assert database.telemetry.registry.value(
            "storage_read_only_aborts_total") == 0

    def test_commits_after_pin_exceed_the_snapshot(self):
        database = _pair_db("occ", snapshot_reads=True)
        recorder = attach_recorder(database)
        outcomes = _overlap_reader_with_writer(database)
        assert outcomes["writer"][0]
        # The generators were advanced at pin time: every write the
        # writer installed carries a TID above the snapshot.
        snapshots = {op.snapshot for __, op in _snapshot_reads(recorder)}
        writes = [op.tid for op in recorder.history.operations()
                  if op.kind == WRITE]
        assert len(snapshots) == 1 and writes
        assert min(writes) > snapshots.pop()

    def test_read_count_reaches_the_stats_at_unpin(self):
        database = _pair_db("occ", snapshot_reads=True)
        outcomes = _overlap_reader_with_writer(database)
        assert outcomes["reader"][0]
        metric = database.telemetry.registry.value
        assert metric("storage_snapshot_reads_total") == 2  # a, then b
        assert metric("storage_pinned_snapshots") == 0

    def test_versions_are_gcd_after_readers_finish(self):
        database = _pair_db("occ", snapshot_reads=True)
        _overlap_reader_with_writer(database)
        database.run("a", "set_both", "b", 8.0)  # prunes at install
        database.gc_versions()
        assert database.telemetry.registry.value("storage_live_versions") == 0


class TestReadOnlyEnforcement:
    """Satellite regression: every mutation path of a read-only root
    raises the same typed error from ``repro.errors``."""

    def test_snapshot_session_refuses_all_mutations(self):
        database = _pair_db("occ", snapshot_reads=True)
        table = database.reactor("a").table("kv")
        session = SnapshotSession(1, 0, snapshot_tid=10)
        with pytest.raises(ReadOnlyViolation):
            session.insert(table, {"k": "x", "v": 0.0})
        with pytest.raises(ReadOnlyViolation):
            session.update(table, ("a",), {"v": 0.0})
        with pytest.raises(ReadOnlyViolation):
            session.delete(table, ("a",))

    def test_validated_session_refuses_all_mutations(self):
        database = _pair_db("occ")
        table = database.reactor("a").table("kv")
        manager = database.containers[0].concurrency
        session = manager.begin_session(1)
        session.read_only = True  # what RootTransaction.session_for sets
        with pytest.raises(ReadOnlyViolation):
            session.insert(table, {"k": "x", "v": 0.0})
        with pytest.raises(ReadOnlyViolation):
            session.update(table, ("a",), {"v": 0.0})
        with pytest.raises(ReadOnlyViolation):
            session.delete(table, ("a",))

    @pytest.mark.parametrize("proc", ["bad_insert", "bad_update",
                                      "bad_delete"])
    @pytest.mark.parametrize("snapshot_reads", [False, True])
    def test_read_only_roots_abort_through_the_runtime(
            self, snapshot_reads, proc):
        database = _pair_db("occ", snapshot_reads=snapshot_reads)
        outcomes: dict = {}
        _submit_collect(database, outcomes, "bad", "a", proc)
        database.scheduler.run()
        committed, reason, __ = outcomes["bad"]
        assert not committed
        assert "read-only" in reason or "snapshot" in reason
        # State untouched.
        assert database.table_rows("a", "kv") == [{"k": "a", "v": 1.0}]

    def test_replica_routed_root_aborts_with_typed_error(self):
        database = _pair_db(
            "occ",
            replication=ReplicationConfig(
                replicas_per_container=1, mode="async",
                read_from_replicas=True))
        outcomes: dict = {}
        _submit_collect(database, outcomes, "bad", "a", "bad_update")
        database.scheduler.run()
        committed, reason, __ = outcomes["bad"]
        assert not committed
        assert "read-only" in reason
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1


class TestDeploymentThreading:
    def test_snapshot_reads_round_trips_dict_and_json(self):
        config = shared_nothing(2, cc_scheme="2pl_nowait",
                                snapshot_reads=True)
        restored = DeploymentConfig.from_dict(config.to_dict())
        assert restored.snapshot_reads is True
        assert restored.cc_scheme == "2pl_nowait"
        again = DeploymentConfig.from_json(config.to_json())
        assert again.snapshot_reads is True

    def test_read_from_replicas_accepts_occ_and_snapshotting_2pl(self):
        replication = ReplicationConfig(replicas_per_container=1,
                                        mode="async",
                                        read_from_replicas=True)
        shared_nothing(2, cc_scheme="occ", replication=replication)
        shared_nothing(2, cc_scheme="2pl_nowait", snapshot_reads=True,
                       replication=replication)
        with pytest.raises(DeploymentError, match="read_from_replicas"):
            shared_nothing(2, cc_scheme="2pl_nowait",
                           replication=replication)


class TestReplicaSnapshotReads:
    def test_bounded_staleness_read_at_applied_watermark(self):
        """A replica-routed snapshot read pins the replica's applied
        watermark: it sees the applied prefix, not in-flight ships."""
        database = ReactorDatabase(
            shared_everything_with_affinity(
                2, snapshot_reads=True,
                replication=ReplicationConfig(
                    replicas_per_container=1, mode="async",
                    read_from_replicas=True, async_lag_us=5_000.0)),
            smallbank.declarations(4))
        smallbank.load(database, 4)
        outcomes: dict = {}
        _submit_collect(database, outcomes, "write", "cust0",
                        "deposit_checking", 500.0)
        # Submitted well inside the async apply lag: the replica has
        # not applied the deposit yet.
        database.scheduler.at(
            1_000.0, _submit_collect, database, outcomes, "read",
            "cust0", "balance")
        database.scheduler.run()
        assert outcomes["write"][0]
        committed, __, balance = outcomes["read"]
        assert committed
        assert balance == pytest.approx(2 * smallbank.INITIAL_BALANCE)
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1
        assert database.telemetry.registry.value(
            "storage_read_only_aborts_total") == 0
        # The replica eventually applied everything (scheduler drained).
        final = database.run("cust0", "balance")
        assert final == pytest.approx(
            2 * smallbank.INITIAL_BALANCE + 500.0)


class TestReplicaFloor:
    def test_replica_behind_its_floor_serves_no_reads(self):
        """Regression (chaos master seed 1001, episodes 20 and 64): a
        migration seeds a replica's new shadow at the source watermark,
        raising the replica's snapshot floor above a write of its own
        primary it has not applied yet.  No snapshot of that replica is
        consistent: reads of the lagging reactor go to the primary
        until the replica catches up past its floor."""
        database = _pair_db(
            "occ", snapshot_reads=True,
            replication=ReplicationConfig(
                replicas_per_container=1, mode="async",
                read_from_replicas=True, async_lag_us=5_000.0))
        recorder = attach_recorder(database)
        outcomes: dict = {}
        _submit_collect(database, outcomes, "writer", "b", "set_v", 5.0)
        # Two commits on a's container lift the watermark a migrates
        # at above b's unapplied write.
        for at in (10.0, 20.0):
            database.scheduler.at(at, _submit_collect, database,
                                  outcomes, at, "a", "set_v", at)
        database.scheduler.at(100.0, database.migrate, "a", 1)
        database.scheduler.at(2_000.0, _submit_collect, database,
                              outcomes, "reader", "b", "get_v")
        database.scheduler.run()
        replica = database.replication.replicas[1][0]
        assert replica.snapshot_floor >= \
            database.containers[1].concurrency.redo_log.tids[0]
        assert outcomes["reader"] == (True, None, pytest.approx(5.0))
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 0
        report = certify_snapshot_isolation(recorder)
        assert report["ok"], report["violations"]
        # Caught up (the scheduler drained the lag): the replica serves
        # again.
        assert database.run("b", "get_v") == pytest.approx(5.0)
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1

    def test_replica_refuses_calls_to_a_migrated_away_shadow(self):
        """Regression (chaos master seed 1001, episode 64): ``a`` moves
        onto b's container and back off it; the replica keeps a frozen
        shadow of ``a``.  A replica-served root on ``b`` calling ``a``
        is refused as leaving the replica, instead of reading the frozen
        copy past the write ``a`` took at its new home."""
        database = _pair_db(
            "occ", snapshot_reads=True,
            replication=ReplicationConfig(
                replicas_per_container=1, mode="sync",
                read_from_replicas=True))
        for dst in (1, 0):
            database.migrate("a", dst)
            database.scheduler.run()
        database.run("a", "set_v", 9.0)
        assert database.replication.replicas[1][0].shadow("a") \
            is not None
        outcomes: dict = {}
        _submit_collect(database, outcomes, "reader", "b", "slow_sum",
                        "a")
        database.scheduler.run()
        committed, reason, __ = outcomes["reader"]
        assert not committed
        assert "outside its container" in reason


class TestPromotionTidFloor:
    def test_promoted_replica_commits_above_pinned_snapshots(self):
        """Regression: a lagging replica promoted mid-run must not
        issue commit TIDs at or below an in-flight pinned snapshot —
        promotion advances its generator past the global watermark."""
        database = _pair_db(
            "occ", snapshot_reads=True,
            replication=ReplicationConfig(
                replicas_per_container=1, mode="async",
                async_lag_us=50_000.0))
        recorder = attach_recorder(database)
        outcomes: dict = {}
        # A write on b advances container 1's primary generator; the
        # replica (big async lag) applies nothing before the kill.
        _submit_collect(database, outcomes, "w1", "b", "set_v", 5.0)
        # A slow reader pins the global watermark and stays in flight
        # across the failover.
        database.scheduler.at(100.0, _submit_collect, database,
                              outcomes, "reader", "a", "slow_sum", "a")
        database.scheduler.at(
            300.0, database.replication.kill_and_promote, 1)
        post: dict = {}

        def on_w2(root, committed, reason, result):
            post["committed"] = committed
            post["commit_tid"] = root.commit_tid

        database.scheduler.at(
            400.0, lambda: database.submit("b", "set_v", 6.0,
                                           on_done=on_w2))
        database.scheduler.run()
        assert outcomes["w1"][0]
        assert outcomes["reader"][0]
        assert post["committed"]
        snapshot_tid = max(op.snapshot
                           for __, op in _snapshot_reads(recorder))
        assert post["commit_tid"] > snapshot_tid
        report = certify_snapshot_isolation(recorder)
        assert report["ok"], report["violations"]
        assert recorder.is_serializable()


class TestPromotionPinRescope:
    def test_in_flight_replica_reader_survives_promotion(self):
        """Regression: a snapshot reader served on a replica that gets
        promoted mid-read keeps its version retention — post-promotion
        installs must not GC the versions its pin still reaches."""
        from repro.core.deployment import (
            AFFINITY,
            ContainerSpec,
            DeploymentConfig,
        )

        # One container, two executors, both reactors pinned there —
        # the reader's remote sub-call to b releases a's executor, so
        # the post-promotion writer really commits inside its window.
        database = ReactorDatabase(
            DeploymentConfig(
                name="promo-pin", routing=AFFINITY,
                containers=[ContainerSpec(executors=2, mpl=2)],
                pin_reactors=True, snapshot_reads=True,
                replication=ReplicationConfig(
                    replicas_per_container=1, mode="async",
                    read_from_replicas=True, async_lag_us=1.0)),
            [("a", PAIR), ("b", PAIR)])
        database.load("a", "kv", [{"k": "a", "v": 1.0}])
        database.load("b", "kv", [{"k": "b", "v": 2.0}])
        outcomes: dict = {}
        # Read-only root routed to the replica; it reads a, blocks on
        # b's slow read, and re-reads a afterwards.
        _submit_collect(database, outcomes, "reader", "a",
                        "double_check", "b")
        database.scheduler.at(
            200.0, database.replication.kill_and_promote, 0)
        database.scheduler.at(
            250.0, _submit_collect, database, outcomes, "writer",
            "a", "set_v", 9.0)
        database.scheduler.run()
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1
        assert outcomes["writer"][0]
        committed, __, result = outcomes["reader"]
        assert committed, outcomes["reader"]
        # Both reads of 'a' resolve at the pinned snapshot (1.0 each,
        # b contributes 2.0) — never 9.0 and never a missing row.
        assert result == pytest.approx(4.0)


class TestSnapshotIsolationCertificate:
    def _certified(self):
        """A slow snapshot reader of a and b overlapping a writer of
        both, then a fresh read of a: ``(database, recorder)``."""
        database = _pair_db("occ", snapshot_reads=True)
        recorder = attach_recorder(database)
        outcomes = _overlap_reader_with_writer(database)
        assert outcomes["reader"][0]
        database.run("a", "get_v")
        return database, recorder

    @staticmethod
    def _tamper(recorder, index, **changes):
        events = recorder.history.events
        events[index] = dataclasses.replace(events[index], **changes)

    def test_clean_run_certifies(self):
        __, recorder = self._certified()
        report = certify_snapshot_isolation(recorder)
        assert report["enabled"]
        assert report["ok"], report["violations"]
        assert report["reads_checked"] == 3
        assert report["roots_checked"] == 2

    def test_snapshot_reader_serializes_at_its_snapshot_point(self):
        """The reader committed after the writer, yet read the state
        before it: in the one graph it precedes the writer."""
        database, recorder = self._certified()
        assert recorder.is_serializable()
        reader = _snapshot_reads(recorder)[0][1].txn
        writer = next(op.txn for op in recorder.history.operations()
                      if op.kind == WRITE)
        order = serialization_order(recorder.history.committed_txns(),
                                    recorder.history.conflict_edges())
        assert order.index(reader) < order.index(writer)

    def test_fractured_read_is_a_cycle(self):
        """Tamper the reader's read of b to the writer's version: it
        then saw half of ``set_both`` — no serial order exists."""
        __, recorder = self._certified()
        (__, first), (index, second) = _snapshot_reads(recorder)[:2]
        assert first.txn == second.txn
        written = next(op.tid for op in recorder.history.operations()
                       if op.kind == WRITE and op.item == second.item)
        self._tamper(recorder, index, tid=written)
        assert not recorder.is_serializable()

    def test_stale_read_tamper_rejected(self):
        __, recorder = self._certified()
        # The fresh read of a observed the writer's version.
        index, op = _snapshot_reads(recorder)[-1]
        self._tamper(recorder, index, tid=op.tid - 1)
        report = certify_snapshot_isolation(recorder)
        assert not report["ok"]
        assert report["violations"][0]["kind"] == "stale-read"

    def test_future_read_tamper_rejected(self):
        __, recorder = self._certified()
        index, op = _snapshot_reads(recorder)[0]
        self._tamper(recorder, index, tid=op.snapshot + 1)
        report = certify_snapshot_isolation(recorder)
        assert not report["ok"]
        assert report["violations"][0]["kind"] == "future-read"

    def test_split_snapshot_tamper_rejected(self):
        __, recorder = self._certified()
        (__, first), (index, second) = _snapshot_reads(recorder)[:2]
        assert first.txn == second.txn
        self._tamper(recorder, index, snapshot=second.snapshot + 1)
        report = certify_snapshot_isolation(recorder)
        assert not report["ok"]
        assert [v["kind"] for v in report["violations"]] == \
            ["split-snapshot"]

    def test_lost_async_installs_leave_the_history(self):
        """A write an async failover lost is no stale-read trap: the
        promotion takes it back out of the recorded history."""
        database = _pair_db(
            "occ", snapshot_reads=True,
            replication=ReplicationConfig(
                replicas_per_container=1, mode="async",
                async_lag_us=50_000.0))
        recorder = attach_recorder(database)
        outcomes: dict = {}
        # Committed, then lost: the replica applies nothing before the
        # kill.
        _submit_collect(database, outcomes, "writer", "b", "set_v", 5.0)
        database.scheduler.at(
            300.0, database.replication.kill_and_promote, 1)
        database.scheduler.run()
        assert outcomes["writer"][0]
        assert database.run("b", "get_v") == pytest.approx(2.0)
        assert not any(op.kind == WRITE
                       for op in recorder.history.operations())
        report = certify_snapshot_isolation(recorder)
        assert report["reads_checked"] == 1
        assert report["ok"], report["violations"]

    def test_no_recorder_reports_disabled(self):
        report = certify_snapshot_isolation(None)
        assert not report["enabled"]
        assert report["ok"]


class TestRecoveryAndMigration:
    def test_recovery_replays_into_the_versioned_engine(self):
        database = _pair_db("occ", snapshot_reads=True)
        durability = enable_durability(database)
        database.run("a", "set_both", "b", 5.0)
        checkpoint = take_checkpoint(database)
        database.run("a", "set_v", 6.0)

        recovered = recover(
            shared_nothing(2, snapshot_reads=True),
            [("a", PAIR), ("b", PAIR)],
            checkpoint, durability.logs.values()).database
        enable_durability(recovered)
        recorder = attach_recorder(recovered)
        assert recovered.run("a", "get_v") == pytest.approx(6.0)
        assert recovered.run("b", "get_v") == pytest.approx(5.0)
        # Post-recovery writers install versions for snapshot readers.
        outcomes = _overlap_reader_with_writer(recovered)
        assert outcomes["reader"][0]
        assert outcomes["reader"][2] == pytest.approx(11.0)
        report = certify_snapshot_isolation(recorder)
        assert report["ok"], report["violations"]
        assert recorder.is_serializable()

    def test_pinned_reader_survives_a_mid_flight_migration(self):
        """Regression: a snapshot pinned before a migration must still
        resolve pre-watermark state on the successor — the copy ships
        the retained version history, not just the flat watermark cut."""
        database = _pair_db("occ", snapshot_reads=True)
        enable_durability(database)
        recorder = attach_recorder(database)
        outcomes: dict = {}
        # Reader on 'b' pins, stalls, then calls the migrating 'a'.
        _submit_collect(database, outcomes, "reader", "b",
                        "slow_sum", "a")
        database.scheduler.at(
            50.0, _submit_collect, database, outcomes, "writer",
            "a", "set_v", 9.0)
        database.scheduler.at(100.0, database.migrate, "a", 1)
        database.scheduler.run()
        assert outcomes["writer"][0]
        committed, __, result = outcomes["reader"]
        assert committed
        # The snapshot predates the writer AND the migration: the
        # successor must serve a=1.0, not 9.0 and not a missing row.
        assert result == pytest.approx(3.0)
        assert database.reactor("a").container.container_id == 1
        report = certify_snapshot_isolation(recorder)
        assert report["ok"], report["violations"]
        # The successor joins the source's items: the reader precedes
        # the writer it did not see, across the migration.
        assert recorder.is_serializable()

    def test_snapshot_scan_keeps_hash_index_equality_contract(self):
        """Regression: snapshot scans refuse hash-index range scans
        exactly like validated sessions (scheme-independent errors)."""
        from repro.errors import QueryError
        from repro.relational import IndexSpec, int_col, make_schema
        from repro.relational.table import Table

        schema = make_schema(
            "t", [int_col("id"), int_col("grp")], ["id"],
            [IndexSpec("by_grp", ("grp",), ordered=False)])
        table = Table(schema)
        for i in range(4):
            table.load_row({"id": i, "grp": i % 2}, tid=1)
        session = SnapshotSession(1, 0, snapshot_tid=5)
        with pytest.raises(QueryError, match="equality only"):
            session.scan(table, index="by_grp", low=(0,), high=(1,))
        with pytest.raises(QueryError, match="equality only"):
            session.scan(table, index="by_grp")
        result = session.scan(table, index="by_grp", low=(1,),
                              high=(1,))
        assert [r["id"] for r in result.rows] == [1, 3]

    def test_indexed_snapshot_scan_examines_candidates_not_table(self):
        """Regression: indexed snapshot scans examine index candidates
        plus the chained set — not the whole table — while rows
        re-keyed or deleted after the snapshot still resolve."""
        from repro.relational import IndexSpec, int_col, make_schema
        from repro.relational.table import Table
        from repro.storage import StorageCoordinator

        schema = make_schema(
            "t", [int_col("id"), int_col("v")], ["id"],
            [IndexSpec("by_v", ("v",), ordered=True)])
        table = Table(schema)
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        for i in range(100):
            table.load_row({"id": i, "v": i}, tid=1)
        coordinator.pin(1, 1)
        # After the pin: one row re-keyed out of the range, one
        # deleted — both must still appear to the snapshot.
        table.install_update(table.get_record((5,)),
                             {"id": 5, "v": 500}, 10)
        table.install_delete(table.get_record((6,)), 11)
        session = SnapshotSession(1, 0, snapshot_tid=1)
        result = session.scan(table, index="by_v", low=(3,), high=(8,))
        assert [r["id"] for r in result.rows] == [3, 4, 5, 6, 7, 8]
        assert result.examined <= 10  # candidates + chains, not 100

    def test_unindexed_equality_select_uses_hash_probe(self):
        """Regression: an equality-predicate scan with no explicit
        index takes the hash-index fast path like validated sessions —
        not a full-table walk."""
        from repro.relational import IndexSpec, int_col, make_schema
        from repro.relational.predicate import col
        from repro.relational.table import Table

        schema = make_schema(
            "t", [int_col("id"), int_col("grp")], ["id"],
            [IndexSpec("by_grp", ("grp",), ordered=False)])
        table = Table(schema)
        for i in range(100):
            table.load_row({"id": i, "grp": i % 10}, tid=1)
        session = SnapshotSession(1, 0, snapshot_tid=5)
        result = session.scan(table, col("grp") == 3)
        assert [r["id"] for r in result.rows] == list(range(3, 100, 10))
        assert result.examined <= 12  # probe + chains, not 100

    def test_migrated_in_replica_seeds_carry_the_watermark(self):
        """Regression: re-homed replica shadows are seeded at the
        migration watermark, not tid 0 — a replica snapshot pinned
        below the watermark must not see migrated-in future state."""
        database = _pair_db(
            "occ", snapshot_reads=True,
            replication=ReplicationConfig(
                replicas_per_container=1, mode="async",
                read_from_replicas=True))
        database.run("a", "set_v", 9.0)
        migration = database.migrate("a", 1)
        database.scheduler.run()
        assert migration.done
        replica = database.replication.replicas[1][0]
        shadow = replica.shadow("a")
        record = shadow.table("kv").get_record(("a",))
        assert record.tid == migration.watermark > 0
        # Below the watermark the migrated-in row is invisible.
        assert record.visible_at(migration.watermark - 1) is None
        # Fresh replica-routed reads pin at the seed floor (the
        # replica's materialized position) and see the row.
        assert replica.snapshot_floor == migration.watermark
        assert database.run("a", "get_v") == pytest.approx(9.0)

    def test_migration_copies_a_consistent_cut_and_reads_certify(self):
        database = _pair_db("occ", snapshot_reads=True)
        enable_durability(database)
        recorder = attach_recorder(database)
        database.run("a", "set_v", 9.0)
        database.migrate("a", 1)
        database.scheduler.run()
        assert database.reactor("a").container.container_id == 1
        assert certify_migration(database)["ok"]
        # Snapshot reads over the migrated (watermark-restamped)
        # reactor still certify.
        assert database.run("a", "get_v") == pytest.approx(9.0)
        assert recorder.is_serializable()
        report = certify_snapshot_isolation(recorder)
        assert report["ok"], report["violations"]
