"""Online reactor migration: mechanism, edge cases, certification.

Covers the ISSUE 3 edge-case checklist: migration during an in-flight
cross-container transaction under every CC scheme, migration of a
reactor with sync replicas, back-to-back migrations of the same
reactor (including a return to a previous home, which exercises the
replica apply fences), and audit certification of histories that span
a live migration — plus error paths, parked-work replay, and
rebalancing, one-off and scheduled.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import ExplicitPlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.durability import enable_durability
from repro.errors import MigrationError
from repro.formal.audit import (
    attach_recorder,
    certify_migration,
    certify_replication,
)
from repro.migration.manager import IMBALANCE_THRESHOLD, MAX_MOVES_PER_CHECK
from repro.relational import float_col, int_col, make_schema, str_col
from repro.replication import ReplicationConfig
from repro.workloads import smallbank as sb

CC_SCHEMES = ("occ", "2pl_nowait", "2pl_waitdie")


# ----------------------------------------------------------------------
# A small reactor type with controllable execution time
# ----------------------------------------------------------------------

def _counter_schema():
    return [
        make_schema("state",
                    [str_col("key"), int_col("value"),
                     float_col("weight")],
                    ["key"]),
    ]


COUNTER = ReactorType("MigCounter", _counter_schema)


@COUNTER.procedure
def bump(ctx, amount: int = 1) -> int:
    row = ctx.lookup("state", "n")
    new = row["value"] + amount
    ctx.update("state", "n", {"value": new})
    return new


@COUNTER.procedure(read_only=True)
def read_value(ctx) -> int:
    return ctx.lookup("state", "n")["value"]


@COUNTER.procedure
def slow_bump(ctx, micros: float, amount: int = 1):
    """Hold the reactor in an in-flight transaction for ``micros``."""
    row = ctx.lookup("state", "n")
    yield ctx.compute(micros)
    ctx.update("state", "n", {"value": row["value"] + amount})
    return row["value"] + amount


@COUNTER.procedure
def bump_other(ctx, other: str, micros: float = 0.0):
    """Cross-reactor transaction: bump self, then the other reactor."""
    row = ctx.lookup("state", "n")
    ctx.update("state", "n", {"value": row["value"] + 1})
    if micros:
        yield ctx.compute(micros)
    fut = yield ctx.call(other, "bump", 1)
    value = yield ctx.get(fut)
    return value


def _declarations(n: int):
    return [(f"m{i}", COUNTER) for i in range(n)]


def _load(database: ReactorDatabase, n: int) -> None:
    for i in range(n):
        database.load(f"m{i}", "state",
                      [{"key": "n", "value": 0, "weight": 1.0}])


def _value(database: ReactorDatabase, name: str) -> int:
    rows = database.table_rows(name, "state")
    return rows[0]["value"]


def _submit_tracked(database, outcomes, reactor, proc, *args):
    def on_done(root, committed, reason, result):
        outcomes.append((committed, reason))
    database.submit(reactor, proc, *args, on_done=on_done)


# ----------------------------------------------------------------------
# Basic mechanism
# ----------------------------------------------------------------------

class TestBasicMigration:
    def test_moves_state_and_routing(self):
        db = ReactorDatabase(shared_nothing(3), _declarations(6))
        _load(db, 6)
        for __ in range(4):
            db.run("m0", "bump")
        old = db.reactor("m0")
        assert old.container.container_id == 0

        migration = db.migrate("m0", 2)
        db.scheduler.run()
        assert migration.done
        new = db.reactor("m0")
        assert new is not old
        assert new.container.container_id == 2
        assert new.epoch == old.epoch + 1
        assert old.retired and old.migrated_to is new
        assert _value(db, "m0") == 4
        # The successor keeps serving.
        assert db.run("m0", "bump") == 5

    def test_migration_event_accounting(self):
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        db.run("m0", "bump")
        db.migrate("m0", 1)
        db.scheduler.run()
        assert db.telemetry.registry.value(
            "migration_completed_total") == 1
        (event,) = db.migration.events
        assert event.rows_copied == 1
        assert event.src_cid == 0 and event.dst_cid == 1
        assert event.state == "done"

    def test_parked_roots_replay_in_order(self):
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        db.run("m0", "bump")
        outcomes: list = []
        db.migrate("m0", 1)
        for amount in (10, 100, 1000):
            _submit_tracked(db, outcomes, "m0", "bump", amount)
        assert db.telemetry.registry.value(
            "migration_roots_parked_total") == 3
        db.scheduler.run()
        assert [c for c, __ in outcomes] == [True, True, True]
        assert _value(db, "m0") == 1111

    def test_migration_drains_inflight_source_transaction(self):
        """A transaction already running on the reactor completes at
        the source before the copy; its write is in the snapshot."""
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        outcomes: list = []
        _submit_tracked(db, outcomes, "m0", "slow_bump", 400.0, 7)
        # Start the migration while the slow transaction runs.
        db.scheduler.run(until=10.0)
        migration = db.migrate("m0", 1)
        db.scheduler.run()
        assert outcomes == [(True, None)]
        assert migration.done
        assert migration.drain_polls > 0
        assert _value(db, "m0") == 7

    def test_certify_migration_detects_tampering(self):
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        db.run("m0", "bump")
        db.migrate("m0", 1)
        db.scheduler.run()
        assert certify_migration(db)["ok"]
        # Corrupt the live copy behind the log's back.
        table = db.reactor("m0").table("state")
        record = table.get_record(("n",))
        record.value = dict(record.value, value=999)
        report = certify_migration(db)
        assert not report["ok"]
        assert not report["migrations"][-1]["state_ok"]

    def test_checkpoint_keeps_the_destination_log_replayable(self):
        """A checkpoint after a completed migration truncates the
        destination log no further than the migration's watermark, so
        the certificate still replays snapshot + log to live state."""
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        durability = enable_durability(db)
        db.run("m0", "bump")
        db.migrate("m0", 1)
        db.scheduler.run()
        for __ in range(3):
            db.run("m0", "bump")
        durability.incremental_checkpoint()
        entry = certify_migration(db)["migrations"][-1]
        assert entry["log_checked"] is True
        assert entry["state_ok"] is True


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------

class TestMigrationErrors:
    def _db(self):
        db = ReactorDatabase(shared_nothing(2), _declarations(2))
        _load(db, 2)
        return db

    def test_same_container_refused(self):
        with pytest.raises(MigrationError, match="already homed"):
            self._db().migrate("m0", 0)

    def test_unknown_destination_refused(self):
        with pytest.raises(MigrationError, match="does not exist"):
            self._db().migrate("m0", 5)

    def test_double_migration_refused(self):
        db = self._db()
        db.migrate("m0", 1)
        with pytest.raises(MigrationError, match="already migrating"):
            db.migrate("m0", 1)
        db.scheduler.run()

    def test_failed_destination_refused(self):
        db = self._db()
        db.containers[1].failed = True
        with pytest.raises(MigrationError, match="destination"):
            db.migrate("m0", 1)


# ----------------------------------------------------------------------
# Migration during an in-flight cross-container transaction
# ----------------------------------------------------------------------

class TestInflightCrossContainer:
    @pytest.mark.parametrize("scheme", CC_SCHEMES)
    def test_parked_subcall_spans_migration(self, scheme):
        """A cross-container transaction whose sub-call arrives while
        the callee migrates parks, replays at the destination, and
        commits through 2PC spanning the migration."""
        db = ReactorDatabase(shared_nothing(3, cc_scheme=scheme),
                             _declarations(3))
        _load(db, 3)
        recorder = attach_recorder(db)
        # Hold m1 in flight so the migration must drain.
        outcomes: list = []
        _submit_tracked(db, outcomes, "m1", "slow_bump", 300.0)
        # m0 computes first, then calls m1 — the call lands mid-drain.
        _submit_tracked(db, outcomes, "m0", "bump_other", "m1", 50.0)
        db.scheduler.run(until=5.0)
        migration = db.migrate("m1", 2)
        db.scheduler.run()
        assert migration.done
        assert [c for c, __ in outcomes] == [True, True]
        assert db.telemetry.registry.value(
            "migration_subcalls_parked_total") == 1
        assert _value(db, "m1") == 2  # slow_bump + bump_other's bump
        assert _value(db, "m0") == 1
        assert db.reactor("m1").container.container_id == 2
        assert recorder.is_serializable()
        assert certify_migration(db)["ok"]

    def test_subcall_in_transport_flight_blocks_drain(self):
        """A sub-call dispatched toward the source but still paying
        transport delay is invisible to the in-flight set and the
        executor queues — the drain barrier must still wait for it
        (it registered on the reactor at dispatch, Section 2.2.4), or
        its commit would land in the source copy after the snapshot
        and be lost at the flip."""
        db = ReactorDatabase(shared_nothing(3), _declarations(3))
        _load(db, 3)
        outcomes: list = []

        def on_done(root, committed, reason, result):
            outcomes.append((committed, reason))

        root = db.submit("m0", "bump_other", "m1", 50.0,
                         on_done=on_done)
        # Step until the call to m1 was dispatched (remote_calls set at
        # dispatch; arrival is cs + transport_delay = 2.0us later).
        t = 0.0
        while root.remote_calls == 0 and t < 500.0:
            t += 0.5
            db.scheduler.run(until=t)
        assert root.remote_calls == 1
        target = db.reactor("m1")
        assert root.txn_id not in target.inflight_roots
        migration = db.migrate("m1", 2)
        db.scheduler.run()
        assert migration.done
        assert outcomes == [(True, None)]
        # The in-transport sub-call ran at the source before the copy:
        # its write is in the snapshot, nothing was torn off.
        assert _value(db, "m1") == 1
        report = certify_migration(db)
        assert report["ok"]
        assert report["migrations"][-1]["src_quiet_ok"]

    @pytest.mark.parametrize("scheme", CC_SCHEMES)
    def test_transaction_that_touched_source_drains(self, scheme):
        """A transaction that already touched the migrating reactor
        keeps running at the source and completes before the flip."""
        db = ReactorDatabase(shared_nothing(3, cc_scheme=scheme),
                             _declarations(3))
        _load(db, 3)
        outcomes: list = []
        # bump_other touches m1 (self) immediately, then stalls before
        # calling m2 — when the call happens, m1 (not m2) is migrating,
        # and the root holds a stake in m1 only.
        _submit_tracked(db, outcomes, "m1", "bump_other", "m2", 200.0)
        db.scheduler.run(until=10.0)
        migration = db.migrate("m1", 0)
        db.scheduler.run()
        assert migration.done
        assert outcomes == [(True, None)]
        assert _value(db, "m1") == 1
        assert _value(db, "m2") == 1
        assert certify_migration(db)["ok"]


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------

class TestMigrationWithReplicas:
    def _db(self, mode="sync", n=3, **kwargs):
        replication = ReplicationConfig(
            replicas_per_container=1, mode=mode, **kwargs)
        db = ReactorDatabase(
            shared_nothing(n, replication=replication),
            _declarations(n))
        _load(db, n)
        return db

    def test_sync_replicas_rehome(self):
        db = self._db("sync")
        for __ in range(3):
            db.run("m0", "bump")
        db.migrate("m0", 1)
        db.scheduler.run()
        # Post-migration commits replicate at the new home.
        for __ in range(2):
            db.run("m0", "bump")
        db.scheduler.run()
        replica = db.replication.replicas[1][0]
        shadow = replica.shadow("m0")
        assert shadow is not None
        assert shadow.table("state").rows()[0]["value"] == 5
        report = certify_replication(db)
        assert report["ok"]
        assert certify_migration(db)["ok"]

    def test_failover_of_new_home_keeps_migrated_reactor(self):
        db = self._db("sync")
        db.run("m0", "bump")
        db.migrate("m0", 1)
        db.scheduler.run()
        db.run("m0", "bump")
        db.replication.kill_and_promote(1)
        db.scheduler.run()
        # The promoted replica serves the migrated reactor.
        assert db.reactor("m0").container.container_id == 1
        assert _value(db, "m0") == 2
        assert db.run("m0", "bump") == 3
        assert certify_replication(db)["ok"]

    def test_source_failover_mid_drain_cancels_migration(self):
        db = self._db("sync")
        outcomes: list = []
        _submit_tracked(db, outcomes, "m0", "slow_bump", 500.0)
        db.scheduler.run(until=5.0)
        migration = db.migrate("m0", 1)
        # Park a root during the drain, then kill the source.
        _submit_tracked(db, outcomes, "m0", "bump", 10)
        db.scheduler.at(20.0, db.replication.kill_and_promote, 0)
        db.scheduler.run()
        assert migration.state == "cancelled"
        assert db.telemetry.registry.value(
            "migration_cancelled_total") == 1
        # The parked root replayed against the promoted primary.
        assert db.reactor("m0").container.container_id == 0
        committed = [c for c, __ in outcomes]
        assert committed.count(True) >= 1
        assert _value(db, "m0") >= 10

    def test_read_from_replicas_survives_migration(self):
        db = self._db("async", read_from_replicas=True,
                      async_lag_us=10.0)
        db.run("m0", "bump")
        db.scheduler.run()
        db.migrate("m0", 2)
        db.scheduler.run()
        db.run("m0", "bump")
        db.scheduler.run()
        # Read-only roots route to the new home's replica.
        metric = db.telemetry.registry.value
        before = metric("replication_reads_routed_total")
        value = db.run("m0", "read_value")
        assert value == 2
        assert metric("replication_reads_routed_total") == before + 1


# ----------------------------------------------------------------------
# Back-to-back migrations
# ----------------------------------------------------------------------

class TestBackToBack:
    def test_chain_and_return_home_with_async_replicas(self):
        """0 -> 1 -> 2 -> 0 with traffic between hops: the return to a
        previous home exercises the replica apply fences (stale history
        for the reactor must not replay over the new snapshot)."""
        replication = ReplicationConfig(
            replicas_per_container=1, mode="async", async_lag_us=40.0)
        db = ReactorDatabase(
            shared_nothing(3, replication=replication),
            _declarations(3))
        _load(db, 3)
        expected = 0
        for dst in (1, 2, 0):
            for __ in range(3):
                db.run("m0", "bump")
                expected += 1
            migration = db.migrate("m0", dst)
            db.scheduler.run()
            assert migration.done
            assert db.reactor("m0").container.container_id == dst
        for __ in range(2):
            db.run("m0", "bump")
            expected += 2 - 1
        db.scheduler.run()
        assert _value(db, "m0") == 11
        assert db.reactor("m0").epoch == 3
        assert certify_replication(db)["ok"]
        report = certify_migration(db)
        assert report["ok"]
        superseded = [m for m in report["migrations"]
                      if m.get("superseded")]
        assert len(superseded) == 2

    def test_immediate_requeue_of_parked_work(self):
        """Roots parked during migration N that replay while migration
        N+1 starts are re-parked, not lost."""
        db = ReactorDatabase(shared_nothing(3), _declarations(3))
        _load(db, 3)
        outcomes: list = []
        first = db.migrate("m0", 1)

        def chain(migration):
            # Fires at the flip of the first migration, before the
            # parked roots replay (they wait out mig_replay_per_txn).
            db.migrate("m0", 2)

        first.on_done = chain
        for __ in range(3):
            _submit_tracked(db, outcomes, "m0", "bump")
        db.scheduler.run()
        assert [c for c, __ in outcomes] == [True, True, True]
        assert _value(db, "m0") == 3
        assert db.reactor("m0").container.container_id == 2


# ----------------------------------------------------------------------
# Audit certification of histories spanning a migration
# ----------------------------------------------------------------------

class TestAuditAcrossMigration:
    @pytest.mark.parametrize("scheme", CC_SCHEMES)
    def test_concurrent_history_spanning_migration_serializable(
            self, scheme):
        n = 6
        db = ReactorDatabase(
            shared_nothing(3, cc_scheme=scheme),
            sb.declarations(n))
        sb.load(db, n)
        recorder = attach_recorder(db)
        outcomes: list = []
        specs = []
        for i in range(30):
            src = sb.reactor_name(i % n)
            dst = sb.reactor_name((i + 1) % n)
            if i % 3 == 0:
                specs.append((src, "transfer", (src, dst, 1.0)))
            else:
                specs.append((src, "deposit_checking", (1.0,)))
        for index, (reactor, proc, args) in enumerate(specs):
            db.scheduler.at(float(index) * 7.0, _submit_tracked, db,
                            outcomes, reactor, proc, *args)
        db.scheduler.at(40.0, db.migrate, "cust0", 1)
        db.scheduler.at(120.0, db.migrate, "cust1", 2)
        db.scheduler.run()
        committed = [c for c, __ in outcomes]
        assert committed.count(True) >= 20
        assert db.telemetry.registry.value(
            "migration_completed_total") == 2
        assert recorder.is_serializable(), (
            f"history spanning a migration not serializable "
            f"under {scheme}")
        assert certify_migration(db)["ok"]
        assert sb.total_money(db, n) == pytest.approx(
            n * 2 * sb.INITIAL_BALANCE
            + sum(1.0 for i in range(30)
                  if i % 3 != 0 and committed[i]))


# ----------------------------------------------------------------------
# Elastic rebalancing
# ----------------------------------------------------------------------

class TestRebalance:
    def test_rebalance_moves_hot_reactors(self):
        db = ReactorDatabase(shared_nothing(3), _declarations(6))
        _load(db, 6)
        # Modulo placement homes m0/m3 in c0; make both hot — a
        # *placement* skew a migration can fix (moving one of them
        # halves the hot container's load).
        for __ in range(30):
            db.run("m0", "bump")
            db.run("m3", "bump")
        for i in (1, 2, 4, 5):
            db.run(f"m{i}", "bump")
        moves = db.rebalance()
        db.scheduler.run()
        assert 1 <= len(moves) <= 4
        assert any(m.reactor_name in ("m0", "m3") for m in moves)
        assert all(m.done for m in moves)
        # The hot pair no longer shares a container.
        assert db.reactor("m0").container.container_id \
            != db.reactor("m3").container.container_id
        metric = db.telemetry.registry.value
        assert metric("migration_rebalance_checks_total") == 1
        assert metric("migration_rebalance_moves_total") == len(moves)
        # The window reset: an immediate re-check moves nothing.
        assert db.rebalance() == []

    def test_rebalance_acts_only_past_the_imbalance_threshold(self):
        """A container is overloaded past ``IMBALANCE_THRESHOLD`` times
        the mean: 12 of a mean 10 is inside it, 14 is past it."""
        assert 12 <= IMBALANCE_THRESHOLD * 10 < 14
        for hot, cold, expected in ((6, 4, 0), (7, 3, 1)):
            db = ReactorDatabase(shared_nothing(2), _declarations(4))
            _load(db, 4)
            # Modulo placement: m0/m2 -> c0, m1/m3 -> c1.
            for name, count in (("m0", hot), ("m2", hot),
                                ("m1", cold), ("m3", cold)):
                for __ in range(count):
                    db.run(name, "bump")
            moves = db.rebalance()
            db.scheduler.run()
            assert len(moves) == expected
            assert all(m.reactor_name in ("m0", "m2") for m in moves)

    def test_rebalance_moves_at_most_max_moves_per_check(self):
        """Eight equally hot reactors crowded into one of eight
        containers: every move helps, so the per-check budget is what
        stops the first check, and the next window's check finishes
        spreading them."""
        n = 8
        placement = ExplicitPlacement({f"m{i}": 0 for i in range(n)})
        db = ReactorDatabase(shared_nothing(n, placement=placement),
                             _declarations(n))
        _load(db, n)
        for i in range(n):
            for __ in range(10):
                db.run(f"m{i}", "bump")
        moves = db.rebalance()
        db.scheduler.run()
        assert len(moves) == MAX_MOVES_PER_CHECK
        assert all(m.done for m in moves)
        loads = db.migration.container_loads()
        assert loads == [0] * n  # the window reset with the check
        still_home = sum(db.reactor(f"m{i}").container.container_id == 0
                         for i in range(n))
        assert still_home == n - MAX_MOVES_PER_CHECK
        for i in range(n):
            for __ in range(10):
                db.run(f"m{i}", "bump")
        assert len(db.rebalance()) == n - 1 - MAX_MOVES_PER_CHECK
        db.scheduler.run()
        homes = {db.reactor(f"m{i}").container.container_id
                 for i in range(n)}
        assert homes == set(range(n))
        assert db.telemetry.registry.value(
            "migration_rebalance_moves_total") == n - 1

    def test_rebalance_leaves_inherent_skew_alone(self):
        """One reactor generating nearly all load is inherent skew, not
        placement skew: moving it would only move the bottleneck, so
        rebalance refuses."""
        db = ReactorDatabase(shared_nothing(3), _declarations(6))
        _load(db, 6)
        for __ in range(60):
            db.run("m0", "bump")
        for i in range(1, 6):
            db.run(f"m{i}", "bump")
        moves = db.rebalance()
        db.scheduler.run()
        assert all(m.reactor_name != "m0" for m in moves)
        assert db.reactor("m0").container.container_id == 0

    def test_rebalance_skips_unfixable_container_not_the_check(self):
        """An inherently skewed container must not mask a second,
        genuinely fixable overload elsewhere in the same check."""
        db = ReactorDatabase(shared_nothing(4), _declarations(8))
        _load(db, 8)
        # Modulo placement over 4 containers: m0/m4 -> c0, m1/m5 -> c1.
        # c0: one inherently hot reactor (unmovable); c1: two hot
        # reactors (placement skew a migration fixes).
        for __ in range(80):
            db.run("m0", "bump")
        for __ in range(30):
            db.run("m1", "bump")
            db.run("m5", "bump")
        for i in (2, 3, 6, 7):
            db.run(f"m{i}", "bump")
        moves = db.rebalance()
        db.scheduler.run()
        assert any(m.reactor_name in ("m1", "m5") for m in moves)
        assert db.reactor("m1").container.container_id \
            != db.reactor("m5").container.container_id
        assert db.reactor("m0").container.container_id == 0

    def test_rebalance_noop_when_balanced(self):
        db = ReactorDatabase(shared_nothing(3), _declarations(6))
        _load(db, 6)
        for i in range(6):
            db.run(f"m{i}", "bump")
        assert db.rebalance() == []

    def test_scheduled_rebalance_triggers_migration(self):
        """Periodic rebalancing is ``rebalance`` on scheduler events,
        as ``abl_migration`` drives it."""
        db = ReactorDatabase(shared_nothing(3), _declarations(6))
        _load(db, 6)
        for t in range(2_000, 10_001, 2_000):
            db.scheduler.at(float(t), db.rebalance)
        outcomes: list = []
        for i in range(80):
            target = "m0" if i % 2 else "m3"
            db.scheduler.at(float(i) * 20.0, _submit_tracked, db,
                            outcomes, target, "bump")
        db.scheduler.run()
        metric = db.telemetry.registry.value
        assert metric("migration_rebalance_checks_total") >= 1
        assert metric("migration_completed_total") >= 1
        homes = {db.reactor(name).container.container_id
                 for name in ("m0", "m3")}
        assert homes != {0}
        assert all(c for c, __ in outcomes)
        assert _value(db, "m0") + _value(db, "m3") == 80
