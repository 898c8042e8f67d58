"""Durability tests: logging, checkpoints, recovery equivalence."""

import random
from types import SimpleNamespace

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.core.reactor import ReactorType
from repro.durability import (
    CheckpointManifest,
    DurabilityConfig,
    RedoEntry,
    RedoLog,
    RedoRecord,
    enable_durability,
    recover,
    take_checkpoint,
    unseal,
)
from repro.errors import SimulationError, TransactionAbort
from repro.experiments.common import tpcc_deployment
from repro.relational import float_col, make_schema, str_col
from repro.workloads import smallbank as sb
from repro.workloads import tpcc

N = 8

#: Checkpoints and recovery work on, and across, both backends.
BACKENDS = ("sim", "threads")

#: Recovery must behave identically under every real CC scheme — the
#: redo log records committed after-images, not scheme artifacts.
CC_SCHEMES = ("occ", "2pl_nowait", "2pl_waitdie")


def fresh_bank(deployment=None, cc_scheme="occ"):
    database = ReactorDatabase(
        deployment or shared_nothing(4, cc_scheme=cc_scheme),
        sb.declarations(N))
    sb.load(database, N)
    return database


def state_of(database):
    return {
        (name, table): database.table_rows(name, table)
        for name in database.reactor_names()
        for table in ("savings", "checking")
    }


def run_some_transfers(database, count=20, seed=5):
    import random

    rng = random.Random(seed)
    for i in range(count):
        variant = sb.VARIANTS[i % len(sb.VARIANTS)]
        src = sb.reactor_name(rng.randrange(N))
        dst = sb.reactor_name((int(src[4:]) + 1 + rng.randrange(N - 1))
                              % N)
        reactor, proc, args = sb.multi_transfer_spec(
            variant, src, [dst], 2.0)
        try:
            database.run(reactor, proc, *args)
        except TransactionAbort:
            pass


class TestLogging:
    def test_committed_writes_logged(self):
        database = fresh_bank()
        manager = enable_durability(database)
        database.run(sb.reactor_name(0), "deposit_checking", 10.0)
        records = list(manager.log_records())
        assert records
        entries = [e for r in records for e in r.entries]
        assert any(e.table == "checking" and e.kind == "update"
                   for e in entries)

    def test_aborted_writes_not_logged(self):
        database = fresh_bank()
        manager = enable_durability(database)
        with pytest.raises(TransactionAbort):
            database.run(sb.reactor_name(0), "transact_saving",
                         -1e12)
        assert list(manager.log_records()) == []

    def test_multi_container_txn_logs_in_both_containers(self):
        database = fresh_bank()
        manager = enable_durability(database)
        database.run(sb.reactor_name(0), "transfer",
                     sb.reactor_name(0), sb.reactor_name(5), 5.0)
        containers = {log.container_id: len(log)
                      for log in manager.logs.values() if len(log)}
        assert len(containers) == 2
        # Same commit TID on both participants.
        tids = {r.commit_tid for r in manager.log_records()}
        assert len(tids) == 1

    def test_log_rebuilt_from_its_sealed_records(self):
        """A log built from sealed records (as recovery and promotion
        seeding build one) holds the same records and TIDs as the live
        log that appended them."""
        database = fresh_bank()
        manager = enable_durability(database)
        run_some_transfers(database, count=10)
        assert any(len(log) for log in manager.logs.values())
        for log in manager.logs.values():
            restored = RedoLog(log.container_id, log.records)
            assert restored.records == log.records
            assert restored.tids == log.tids
            assert restored.tids == [unseal(sealed).commit_tid
                                     for sealed in log.records]


class TestCheckpoints:
    def test_checkpoint_requires_quiescence(self):
        database = fresh_bank()
        database.submit(sb.reactor_name(0), "deposit_checking", 1.0)
        with pytest.raises(SimulationError):
            take_checkpoint(database)

    def test_truncation_drops_covered_prefix(self):
        database = fresh_bank()
        manager = enable_durability(database)
        run_some_transfers(database, count=10)
        before = sum(len(log) for log in manager.logs.values())
        assert before > 0
        manager.incremental_checkpoint()
        after = sum(len(log) for log in manager.logs.values())
        assert after == 0


class TestRecovery:
    @pytest.mark.parametrize("cc_scheme", CC_SCHEMES)
    def test_recovery_from_empty_checkpoint_plus_full_log(
            self, cc_scheme):
        database = fresh_bank(cc_scheme=cc_scheme)
        manager = enable_durability(database)
        empty_checkpoint = take_checkpoint(fresh_bank())
        run_some_transfers(database, count=15)
        recovered = recover(
            shared_nothing(4, cc_scheme=cc_scheme),
            sb.declarations(N), empty_checkpoint,
            manager.logs.values()).database
        assert state_of(recovered) == state_of(database)

    @pytest.mark.parametrize("cc_scheme", CC_SCHEMES)
    def test_recovery_from_checkpoint_plus_tail(self, cc_scheme):
        database = fresh_bank(cc_scheme=cc_scheme)
        manager = enable_durability(database)
        run_some_transfers(database, count=8, seed=1)
        manager.incremental_checkpoint()
        run_some_transfers(database, count=8, seed=2)
        recovered = recover(
            shared_nothing(4, cc_scheme=cc_scheme),
            sb.declarations(N), manager.manifest,
            manager.logs.values()).database
        assert state_of(recovered) == state_of(database)

    def test_recovered_state_identical_across_cc_schemes(self):
        """The same (sequential, deterministic) workload recovers to
        the same state no matter which scheme logged it — and a log
        written under one scheme replays under another."""
        states = {}
        logs = {}
        for scheme in CC_SCHEMES:
            database = fresh_bank(cc_scheme=scheme)
            manager = enable_durability(database)
            run_some_transfers(database, count=12, seed=9)
            checkpoint = take_checkpoint(fresh_bank())
            recovered = recover(
                shared_nothing(4, cc_scheme=scheme),
                sb.declarations(N), checkpoint,
                manager.logs.values()).database
            assert state_of(recovered) == state_of(database)
            states[scheme] = state_of(recovered)
            logs[scheme] = manager
        baseline = states["occ"]
        for scheme in CC_SCHEMES[1:]:
            assert states[scheme] == baseline, scheme
        # Cross-scheme recovery: 2PL-written log, OCC-recovered DB.
        cross = recover(shared_nothing(4, cc_scheme="occ"),
                        sb.declarations(N),
                        take_checkpoint(fresh_bank()),
                        logs["2pl_nowait"].logs.values()).database
        assert state_of(cross) == baseline

    @pytest.mark.parametrize("target", BACKENDS)
    @pytest.mark.parametrize("source", BACKENDS)
    def test_recovery_onto_different_architecture(self, source, target):
        """Recovery targets any deployment on either backend: logical
        state survives physical re-architecture.  The checkpoint is
        taken mid-run on the source; recovery loads it and replays the
        tail."""
        database = fresh_bank(shared_nothing(4, backend=source))
        try:
            manager = enable_durability(database)
            run_some_transfers(database, count=5, seed=1)
            manager.incremental_checkpoint()
            run_some_transfers(database, count=5, seed=2)
            recovered = recover(
                shared_everything_with_affinity(4, backend=target),
                sb.declarations(N), manager.manifest,
                manager.logs.values()).database
            try:
                assert state_of(recovered) == state_of(database)
                # The recovered database keeps working.
                recovered.run(sb.reactor_name(0), "deposit_checking",
                              1.0)
            finally:
                recovered.close()
        finally:
            database.close()

    def test_post_recovery_commits_get_fresh_tids(self):
        database = fresh_bank()
        manager = enable_durability(database)
        run_some_transfers(database, count=5)
        max_logged = max(r.commit_tid
                         for r in manager.log_records())
        checkpoint = take_checkpoint(fresh_bank())
        recovered = recover(shared_nothing(4), sb.declarations(N),
                            checkpoint, manager.logs.values()).database
        outcome = {}
        recovered.submit(
            sb.reactor_name(0), "deposit_checking", 1.0,
            on_done=lambda root, ok, reason, res:
            outcome.update(tid=root.commit_tid))
        recovered.scheduler.run()
        assert outcome["tid"] > max_logged

    def test_deletes_replayed(self):
        from repro.core.reactor import ReactorType
        from repro.relational import int_col, make_schema

        KV = ReactorType("DurKv", lambda: [
            make_schema("kv", [int_col("k"), int_col("v")], ["k"]),
        ])

        @KV.procedure
        def put(ctx, k, v):
            ctx.insert("kv", {"k": k, "v": v})

        @KV.procedure
        def drop(ctx, k):
            ctx.delete("kv", k)

        database = ReactorDatabase(shared_nothing(1), [("r", KV)])
        manager = enable_durability(database)
        database.run("r", "put", 1, 10)
        database.run("r", "put", 2, 20)
        database.run("r", "drop", 1)
        recovered = recover(shared_nothing(1), [("r", KV)],
                            CheckpointManifest(),
                            manager.logs.values()).database
        assert recovered.table_rows("r", "kv") == [{"k": 2, "v": 20}]


# ----------------------------------------------------------------------
# The shared image: a redo entry aliases the installed row
# ----------------------------------------------------------------------

SCRATCH = ReactorType("Scratch", lambda: [
    make_schema("kv", [str_col("k"), float_col("v")], ["k"])])


@SCRATCH.procedure
def scribble(ctx, key):
    """Writes 1.0 / 2.0, and defaces every dict the record manager
    hands back or is handed — before commit."""
    seen = ctx.lookup("kv", key)
    seen["v"] = -1.0
    written = ctx.update("kv", key, {"v": 1.0})
    written["v"] = -2.0
    fresh = {"k": key + "'", "v": 2.0}
    ctx.insert("kv", fresh)
    fresh["v"] = -3.0
    reread = ctx.lookup("kv", key)  # own write, through the overlay
    reread["v"] = -4.0
    return seen, written, fresh, reread


class TestSharedImage:
    """Installs take ownership of an intent's image and the live redo
    entry shares it: nothing a procedure can reach may alias that
    dict."""

    def _scribbled(self, live=None):
        database = ReactorDatabase(shared_nothing(1),
                                   [("s", SCRATCH)])
        database.load("s", "kv", [{"k": "a", "v": 0.0}])
        manager = enable_durability(database)
        if live is not None:
            publish = manager.publish

            def capture(root, records):
                live.extend(record for __, record in records)
                return publish(root, records)

            manager.publish = capture
        handed_out = database.run("s", "scribble", "a")
        return database, manager, handed_out

    def test_scribbling_changes_neither_row_nor_entry(self):
        database, manager, handed_out = self._scribbled()
        expected = [{"k": "a", "v": 1.0}, {"k": "a'", "v": 2.0}]
        (record,) = manager.log_records()

        def logged():
            return sorted((e.row for e in record.entries),
                          key=lambda row: row["k"])

        assert database.table_rows("s", "kv") == expected
        assert logged() == expected
        # ... and after commit: the results, and a fresh read.
        for row in handed_out:
            row["v"] = -5.0
            row["junk"] = True
        database.table_rows("s", "kv")[0]["v"] = -6.0
        assert database.table_rows("s", "kv") == expected
        assert logged() == expected

    def test_entry_aliases_the_installed_image(self):
        # The contract docs/durability.md states: the live record the
        # commit publishes shares the installed dict — which is why
        # neither side may mutate it — and the log holds a sealed copy.
        live = []
        database, manager, __ = self._scribbled(live)
        (record,) = live
        table = database.reactor("s").table("kv")
        for entry in record.entries:
            assert entry.row is table.get_record(entry.pk).value
        (sealed,) = manager.logs[0].records
        assert sealed is record.sealed
        assert manager.installed[0] == [sealed]
        assert unseal(sealed) == record
        for entry in unseal(sealed).entries:
            assert entry.row is not table.get_record(entry.pk).value
        # A later write installs a new image; the logged one stays.
        database.run("s", "scribble", "a'")
        for entries in (record.entries, unseal(sealed).entries):
            (first,) = [e for e in entries if e.pk == ("a'",)]
            assert first.row == {"k": "a'", "v": 2.0}
        assert table.get_record(first.pk).value == {"k": "a'", "v": 1.0}

    def test_entry_construction_and_round_trip(self):
        positional = RedoEntry("s", "kv", "update", ("a",),
                               {"k": "a", "v": 1.0})
        keyword = RedoEntry(reactor="s", table="kv", kind="update",
                            pk=("a",), row={"k": "a", "v": 1.0})
        assert positional == keyword
        assert (keyword.reactor, keyword.table, keyword.kind,
                keyword.pk, keyword.row) == tuple(keyword)
        tombstone = RedoEntry("s", "kv", "delete", ("a",), None)
        assert RedoEntry._fields == (
            "reactor", "table", "kind", "pk", "row")
        record = RedoRecord(7, (positional, tombstone))
        assert unseal(record.sealed) == record
        __, manager, __ = self._scribbled()
        for record in manager.log_records():
            assert unseal(RedoRecord(record.commit_tid,
                                     record.entries).sealed) == record

    def test_tpcc_replay_equals_live_state(self):
        scale = tpcc.TpccScale(districts=3, customers_per_district=20,
                               items=50, orders_per_district=10,
                               last_names=5)
        deployment = tpcc_deployment(
            "shared-nothing-async", 2, mpl=4,
            durability=DurabilityConfig(enabled=True, mode="group"))
        database = ReactorDatabase(deployment, tpcc.declarations(2))
        tpcc.load(database, 2, scale)
        loaded = take_checkpoint(database)
        workload = tpcc.TpccWorkload(n_warehouses=2, scale=scale,
                                     remote_item_prob=0.2, seed=3)
        worker = SimpleNamespace(rng=random.Random("replay/tpcc"))
        factories = [workload.factory_for(w) for w in range(2)]
        outcomes = []
        for i in range(120):
            reactor, proc, args = factories[i % 2](worker)
            database.submit(
                reactor, proc, *args,
                on_done=lambda root, ok, *rest: outcomes.append(ok))
            if i % 8 == 7:
                database.scheduler.run()
        database.scheduler.run()
        assert len(outcomes) == 120 and sum(outcomes) > 60
        recovered = recover(deployment, tpcc.declarations(2), loaded,
                            database.durability.logs.values()).database

        def state(db):
            return {(name, table.name): db.table_rows(name, table.name)
                    for name in db.reactor_names()
                    for table in db.reactor(name).catalog}

        assert state(recovered) == state(database)
        assert state(recovered) != state(
            recover(deployment, tpcc.declarations(2), loaded,
                    []).database)
        tpcc.check_database(recovered, 2)
