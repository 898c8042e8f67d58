"""Group commit, incremental checkpoints, partitioned recovery."""

import random
from typing import NamedTuple

import pytest

from repro import DurabilityConfig
from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.durability import (
    CheckpointManifest,
    enable_durability,
    recover,
    take_checkpoint,
)
from repro.durability.wal import RedoEntry, RedoRecord, unseal
from repro.errors import SimulationError, TransactionAbort
from repro.formal import certify_crash_recovery
from repro.replication import ReplicationConfig
from repro.workloads import smallbank as sb

N = 8


def durable(mode):
    return DurabilityConfig(enabled=True, mode=mode)


def fresh_bank(mode="group", n_containers=4, replication=None):
    database = ReactorDatabase(
        shared_nothing(n_containers, durability=durable(mode),
                       replication=replication),
        sb.declarations(N))
    sb.load(database, N)
    return database


class FakeRoot(NamedTuple):
    """What ``publish`` and ``note_acked`` read of a root."""

    txn_id: int
    commit_tid: int = 0


def state_of(database):
    return {
        (name, table): database.table_rows(name, table)
        for name in database.reactor_names()
        for table in ("savings", "checking")
    }


def run_some_transfers(database, count=20, seed=5):
    rng = random.Random(seed)
    for i in range(count):
        variant = sb.VARIANTS[i % len(sb.VARIANTS)]
        src = sb.reactor_name(rng.randrange(N))
        dst = sb.reactor_name(
            (int(src[4:]) + 1 + rng.randrange(N - 1)) % N)
        reactor, proc, args = sb.multi_transfer_spec(
            variant, src, [dst], 2.0)
        try:
            database.run(reactor, proc, *args)
        except TransactionAbort:
            pass


def submit_transfers(database, count, seed=7):
    """Open-loop submits (no drain) — material for mid-epoch kills."""
    rng = random.Random(seed)
    for __ in range(count):
        i = rng.randrange(N)
        database.submit(sb.reactor_name(i), "transfer",
                        sb.reactor_name(i),
                        sb.reactor_name((i + 1) % N), 1.0)


class TestCommitAcknowledgement:
    def test_sync_pays_fsync_per_commit(self):
        database = fresh_bank("sync")
        start = database.scheduler.now
        database.run(sb.reactor_name(0), "deposit_checking", 1.0)
        sync_latency = database.scheduler.now - start
        flushers = database.durability_stats()["flushers"]
        assert sum(f["fsyncs"] for f in flushers.values()) == 1
        assert sync_latency >= database.costs.fsync_cost

    def test_group_waits_for_epoch_flush(self):
        """A lone group commit waits out the epoch interval plus the
        fsync; async acknowledges without either."""
        latencies = {}
        for mode in ("sync", "group", "async"):
            database = fresh_bank(mode)
            start = database.scheduler.now
            acked_at = {}
            database.submit(
                sb.reactor_name(0), "deposit_checking", 1.0,
                on_done=lambda *a: acked_at.setdefault(
                    "t", database.scheduler.now))
            database.scheduler.run()
            latencies[mode] = acked_at["t"] - start
        costs = fresh_bank().costs
        assert latencies["group"] >= (costs.flush_interval_us
                                      + costs.fsync_cost)
        assert latencies["group"] > latencies["sync"] \
            > latencies["async"]

    def test_group_amortizes_fsyncs_across_commits(self):
        """Concurrent commits in one epoch share one flush."""
        database = fresh_bank("group", n_containers=1)
        submit_transfers(database, 12)
        database.scheduler.run()
        flusher = database.durability_stats()["flushers"][0]
        assert flusher["records_flushed"] >= 12
        assert flusher["records_per_fsync"] > 1.5
        # Sync on the same workload: one fsync per writing commit.
        database = fresh_bank("sync", n_containers=1)
        submit_transfers(database, 12)
        database.scheduler.run()
        flusher = database.durability_stats()["flushers"][0]
        assert flusher["fsyncs"] == flusher["records_flushed"]

    def test_batch_bytes_flush_early(self):
        from dataclasses import replace

        from repro.sim.machine import MachineProfile, XEON_E3_1276

        tiny_batch = MachineProfile(
            name="xeon-e3-1276", hardware_threads=8,
            costs=replace(XEON_E3_1276.costs, flush_batch_bytes=200))
        deployment = shared_nothing(1, machine=tiny_batch,
                                    durability=durable("group"))
        database = ReactorDatabase(deployment, sb.declarations(N))
        sb.load(database, N)
        submit_transfers(database, 10)
        database.scheduler.run()
        flusher = database.durability_stats()["flushers"][0]
        assert flusher["early_flushes"] >= 1

    def test_acked_commits_are_durable_at_ack(self):
        """Under sync and group, every acknowledged commit is in the
        durable prefix the instant the client hears about it."""
        for mode in ("sync", "group"):
            database = fresh_bank(mode)
            run_some_transfers(database, count=10)
            image = database.durability.crash()
            cert = certify_crash_recovery(
                database, image,
                recover(
                    shared_nothing(4, durability=durable(mode)),
                    sb.declarations(N), image.manifest,
                    image.to_logs()).database)
            assert cert["ok"], cert
            assert cert["zero_acked_loss"]
            assert cert["acked_checked"] > 0

    def test_async_reports_lost_acked_window(self):
        database = fresh_bank("async")
        run_some_transfers(database, count=6)
        # Acked-but-unflushed tail: commits complete immediately, the
        # epoch flush is still pending when we kill.  Run until at
        # least one root acked, then kill before its epoch flushes.
        acked_before = len(database.durability.acked_sites)
        submit_transfers(database, 4)
        deadline = database.scheduler.now + 45.0
        while database.scheduler.now < deadline and \
                len(database.durability.acked_sites) == acked_before:
            database.scheduler.run(
                until=database.scheduler.now + 5.0)
        assert len(database.durability.acked_sites) > acked_before
        image = database.durability.crash()
        recovered = recover(
            shared_nothing(4, durability=durable("async")),
            sb.declarations(N), image.manifest,
            image.to_logs()).database
        cert = certify_crash_recovery(database, image, recovered)
        assert cert["lost_acked"], "expected an async loss window"
        assert not cert["zero_acked_loss"]
        assert cert["ok"], "async loss is reported, not rejected"
        assert cert["state_ok"]


class TestKillAtArbitraryEpoch:
    @pytest.mark.parametrize("mode", ("sync", "group"))
    def test_every_kill_point_certifies(self, mode):
        """Sweep kill points through the run: at every epoch position
        the crash image recovers to a certified state with zero
        acked-commit loss."""
        horizon = None
        for kill_at in (15.0, 40.0, 75.0, 120.0, 200.0, 400.0):
            database = fresh_bank(mode)
            run_some_transfers(database, count=6, seed=2)
            database.durability.incremental_checkpoint()
            submit_transfers(database, 8)
            base = database.scheduler.now
            database.scheduler.run(until=base + kill_at)
            horizon = database.scheduler.now
            image = database.durability.crash()
            recovered = recover(
                shared_nothing(4, durability=durable(mode)),
                sb.declarations(N), image.manifest,
                image.to_logs()).database
            cert = certify_crash_recovery(database, image, recovered)
            assert cert["ok"], (kill_at, cert)
            assert cert["zero_acked_loss"], (kill_at, cert)
            assert cert["state_ok"], (kill_at, cert)
        assert horizon is not None

    def test_torn_cross_container_commit_dropped_atomically(self):
        """A distributed commit flushed on one participant but not
        the other is recovered nowhere."""
        database = fresh_bank("group", n_containers=2)
        manager = database.durability
        log_a = manager.logs[0]
        log_b = manager.logs[1]
        scheduler = database.scheduler

        def entry(reactor, pk, balance):
            return RedoEntry(reactor=reactor, table="checking",
                             kind="update", pk=(pk,),
                             row={"cust_id": pk, "balance": balance})

        # Container 0 opens its epoch early...
        manager.publish(FakeRoot(998), [
            (0, log_a.append(10, [entry(sb.reactor_name(0), 0, 1.0)]))])
        scheduler.run(until=scheduler.now + 20.0)
        # ...then a cross-container commit lands on both (container
        # 1's epoch opens 20us later, so its flush lands later).
        tid = 50
        manager.publish(FakeRoot(999), [
            (0, log_a.append(tid, [entry(sb.reactor_name(0), 0, 2.0)])),
            (1, log_b.append(tid, [entry(sb.reactor_name(1), 1, 3.0)]))])
        # Run until container 0's epoch is durable but 1's is not.
        costs = database.costs
        scheduler.run(until=costs.flush_interval_us
                      + costs.fsync_cost + 1.0)
        assert manager.flushers[0].durable_tid == tid
        assert manager.flushers[1].durable_tid == 0
        image = manager.crash()
        assert image.torn_sites, "expected a torn commit"
        assert tid not in [unseal(r).commit_tid for r in image.logs[0]]
        assert tid not in [unseal(r).commit_tid for r in image.logs[1]]
        # The independently durable single-container commit survives.
        assert 10 in [unseal(r).commit_tid for r in image.logs[0]]

    def test_async_torn_acked_commit_reported_not_rejected(self):
        """Async acknowledges before flushing, so a cross-container
        commit can be acked yet torn at crash time — the certificate
        reports it (torn_unacked_ok False, lost_acked) but still
        accepts the image for this mode, like the lost-acked
        window."""
        database = fresh_bank("async", n_containers=2)
        manager = database.durability
        scheduler = database.scheduler

        def entry(reactor, pk, balance):
            return RedoEntry(reactor=reactor, table="checking",
                             kind="update", pk=(pk,),
                             row={"cust_id": pk, "balance": balance})

        # Stagger the epochs, then land a cross-container commit.
        logs = manager.logs
        manager.publish(FakeRoot(997), [
            (0, logs[0].append(10, [entry(sb.reactor_name(0), 0, 1.0)]))])
        scheduler.run(until=scheduler.now + 20.0)
        tid = 50
        root = FakeRoot(998, tid)
        assert manager.publish(root, [
            (0, logs[0].append(tid, [entry(sb.reactor_name(0), 0, 2.0)])),
            (1, logs[1].append(tid, [entry(sb.reactor_name(1), 1, 3.0)])),
        ]) == []  # async: no wait
        manager.note_acked(root)  # ...and the client heard "committed"
        costs = database.costs
        scheduler.run(until=costs.flush_interval_us
                      + costs.fsync_cost + 1.0)
        image = manager.crash()
        assert image.torn_sites
        recovered = recover(
            shared_nothing(2, durability=durable("async")),
            sb.declarations(N), image.manifest,
            image.to_logs()).database
        cert = certify_crash_recovery(database, image, recovered)
        assert not cert["torn_unacked_ok"]
        assert cert["lost_acked"]
        assert cert["ok"], cert  # async: reported, not rejected
        assert cert["state_ok"]

    def test_tampered_images_rejected(self):
        database = fresh_bank("group")
        run_some_transfers(database, count=10)
        target = shared_nothing(4, durability=durable("group"))

        def recovered_of(image):
            return recover(target, sb.declarations(N),
                           image.manifest, image.to_logs()).database

        # 1. Tamper a durable row.
        image = database.durability.crash()
        for records in image.logs.values():
            if not records:
                continue
            old = unseal(records[0])
            e0 = old.entries[0]
            row = dict(e0.row)
            row["balance"] = row.get("balance", 0.0) + 1e6
            records[0] = RedoRecord(old.commit_tid, (
                RedoEntry(e0.reactor, e0.table, e0.kind, e0.pk, row),
            ) + old.entries[1:]).sealed
            break
        cert = certify_crash_recovery(database, image,
                                      recovered_of(image))
        assert not cert["ok"]

        # 2. Inject a record that was never installed.
        image = database.durability.crash()
        cid = next(c for c, r in image.logs.items() if r)
        fake_tid = unseal(image.logs[cid][-1]).commit_tid + 1000
        image.logs[cid].append(RedoRecord(fake_tid, (
            RedoEntry(sb.reactor_name(0), "checking", "update",
                      (0,), {"cust_id": 0, "balance": 777.0}),)).sealed)
        cert = certify_crash_recovery(database, image,
                                      recovered_of(image))
        assert not cert["ok"]

        # 3. Drop an acked record (acked-commit loss).
        image = database.durability.crash()
        acked_cid, acked_pos = image.acked_sites[0]
        victim = database.durability.installed_tids[acked_cid][acked_pos]
        image.logs[acked_cid] = [r for r in image.logs[acked_cid]
                                 if unseal(r).commit_tid != victim]
        cert = certify_crash_recovery(database, image,
                                      recovered_of(image))
        assert not cert["ok"]

        # The untampered image still certifies.
        image = database.durability.crash()
        cert = certify_crash_recovery(database, image,
                                      recovered_of(image))
        assert cert["ok"], cert


class TestIncrementalCheckpoints:
    @pytest.mark.parametrize("mode", ("sync", "async"))
    def test_a_promotion_keeps_every_dirty_key(self, mode):
        """Dirty keys are read off the append sequence at checkpoint
        time, and a promotion replaces container 0's sequence with the
        survivor's (dirty from its start): the chain alone, no log
        tail, still materializes the live state."""
        database = fresh_bank(replication=ReplicationConfig(
            replicas_per_container=1, mode=mode))
        manager = database.durability
        run_some_transfers(database, count=8, seed=1)
        manager.incremental_checkpoint()
        run_some_transfers(database, count=8, seed=2)
        database.replication.kill_and_promote(0)
        database.scheduler.run()
        run_some_transfers(database, count=8, seed=3)
        segment = manager.incremental_checkpoint()
        assert segment.kind == "incremental"
        recovered = recover(shared_nothing(4), sb.declarations(N),
                            manager.manifest, []).database
        assert state_of(recovered) == state_of(database)

    def test_first_segment_is_full_then_deltas(self):
        database = fresh_bank()
        run_some_transfers(database, count=5, seed=1)
        first = database.durability.incremental_checkpoint()
        assert first.kind == "full"
        run_some_transfers(database, count=5, seed=2)
        second = database.durability.incremental_checkpoint()
        assert second.kind == "incremental"
        assert second.parent_seq == first.seq
        # The delta is smaller than the base: only dirty keys.
        full_rows = sum(len(rows) for tables in first.rows.values()
                        for rows in tables.values())
        delta_rows = sum(len(rows) for tables in second.rows.values()
                         for rows in tables.values())
        assert 0 < delta_rows < full_rows

    @pytest.mark.parametrize("source", ("chain", "take_checkpoint"))
    def test_manifest_materializes_to_full_checkpoint(self, source):
        """A manifest survives its JSON form, whether it is the
        manager's chain or one :func:`take_checkpoint` returned."""
        database = fresh_bank()
        run_some_transfers(database, count=6, seed=1)
        database.durability.incremental_checkpoint()
        run_some_transfers(database, count=6, seed=2)
        if source == "chain":
            database.durability.incremental_checkpoint()
            manifest = database.durability.manifest
        else:
            manifest = take_checkpoint(database)
        restored = CheckpointManifest.from_json(manifest.to_json())
        assert restored.materialize() == manifest.materialize()
        assert restored.tid_watermarks() == manifest.tid_watermarks()
        recovered = recover(shared_nothing(4), sb.declarations(N),
                            restored, []).database
        assert state_of(recovered) == state_of(database)

    def test_incremental_recovery_equals_full_log_replay(self):
        """Checkpoint chain + truncated tail == full-log replay."""
        with_ckpt = fresh_bank()
        run_some_transfers(with_ckpt, count=6, seed=3)
        with_ckpt.durability.incremental_checkpoint()
        run_some_transfers(with_ckpt, count=6, seed=4)
        with_ckpt.durability.incremental_checkpoint()
        run_some_transfers(with_ckpt, count=6, seed=5)

        no_ckpt = fresh_bank()
        run_some_transfers(no_ckpt, count=6, seed=3)
        run_some_transfers(no_ckpt, count=6, seed=4)
        run_some_transfers(no_ckpt, count=6, seed=5)

        base = take_checkpoint(fresh_bank())  # the loaded image
        from_chain = recover(shared_nothing(4), sb.declarations(N),
                             with_ckpt.durability.manifest,
                             with_ckpt.durability.logs.values()).database
        from_log = recover(shared_nothing(4), sb.declarations(N),
                           base, no_ckpt.durability.logs.values()).database
        assert state_of(from_chain) == state_of(from_log)
        assert state_of(from_chain) == state_of(with_ckpt)

    def test_deleted_keys_tracked(self):
        from repro.core.reactor import ReactorType
        from repro.relational import int_col, make_schema

        KV = ReactorType("GcKv", lambda: [
            make_schema("kv", [int_col("k"), int_col("v")], ["k"]),
        ])

        @KV.procedure
        def put(ctx, k, v):
            ctx.insert("kv", {"k": k, "v": v})

        @KV.procedure
        def drop(ctx, k):
            ctx.delete("kv", k)

        database = ReactorDatabase(
            shared_nothing(1, durability=durable("group")),
            [("r", KV)])
        database.run("r", "put", 1, 10)
        database.run("r", "put", 2, 20)
        database.durability.incremental_checkpoint()
        database.run("r", "drop", 1)
        segment = database.durability.incremental_checkpoint()
        assert segment.deleted["r"]["kv"] == [[1]]
        recovered = recover(shared_nothing(1), [("r", KV)],
                            database.durability.manifest, []).database
        assert recovered.table_rows("r", "kv") == [{"k": 2, "v": 20}]

    def test_quiescence_required(self):
        database = fresh_bank()
        database.submit(sb.reactor_name(0), "deposit_checking", 1.0)
        with pytest.raises(SimulationError):
            database.durability.incremental_checkpoint()
        database.scheduler.run()
        database.durability.incremental_checkpoint()

    def test_truncation_respects_pinned_snapshots(self):
        deployment = shared_nothing(4, snapshot_reads=True,
                                    durability=durable("group"))
        database = ReactorDatabase(deployment, sb.declarations(N))
        sb.load(database, N)
        run_some_transfers(database, count=6, seed=1)
        manager = database.durability
        # Pin a snapshot below the watermark, then checkpoint: the
        # logs must keep every record above the pin for the
        # snapshot-isolation audit.
        pin_tid = 1
        database.storage.pin(424242, pin_tid)
        segment = manager.incremental_checkpoint()
        assert all(t <= pin_tid for t in segment.truncate_tids.values())
        assert sum(len(log) for log in manager.logs.values()) > 0
        database.storage.unpin(424242)
        segment = manager.incremental_checkpoint()
        assert sum(len(log) for log in manager.logs.values()) == 0
        assert segment.truncate_tids[0] > pin_tid

    def test_truncation_respects_replica_lag(self):
        replication = ReplicationConfig(replicas_per_container=1,
                                        mode="async",
                                        async_lag_us=500.0)
        database = fresh_bank("group", replication=replication)
        run_some_transfers(database, count=4, seed=1)
        # Replicas are fully caught up after the drain; artificially
        # rewind one to model lag at checkpoint time.
        replica = database.replication.replicas[0][0]
        if replica.applied_records:
            dropped = replica.applied_records.pop()
            replica.applied_tids.discard(unseal(dropped).commit_tid)
        lag_tid = replica.applied_tid
        segment = database.durability.incremental_checkpoint()
        assert segment.truncate_tids[0] <= lag_tid


class TestPartitionedRecovery:
    def _crashed_bank(self, mode="group"):
        database = fresh_bank(mode)
        run_some_transfers(database, count=12, seed=6)
        database.durability.incremental_checkpoint()
        run_some_transfers(database, count=8, seed=7)
        submit_transfers(database, 6)
        database.scheduler.run(until=database.scheduler.now + 25.0)
        return database, database.durability.crash()

    def test_parallel_equals_serial_equals_plain_recover(self):
        database, image = self._crashed_bank()
        target = shared_nothing(4, durability=durable("group"))
        par = recover(target, sb.declarations(N), image.manifest,
                      image.to_logs())
        ser = recover(target, sb.declarations(N), image.manifest,
                      image.to_logs(), parallel=False)
        # What a caller holding only the crash image gets.
        plain = recover(target, sb.declarations(N), image.manifest,
                        image.to_logs()).database
        assert state_of(par.database) == state_of(ser.database)
        assert state_of(par.database) == state_of(plain)
        assert state_of(ser.database) == state_of(plain)

    def test_parallel_recovery_is_faster(self):
        __, image = self._crashed_bank()
        target = shared_nothing(4)
        par = recover(
            target, sb.declarations(N), image.manifest,
            image.to_logs())
        ser = recover(
            target, sb.declarations(N), image.manifest,
            image.to_logs(), parallel=False)
        assert par.partitions == ser.partitions == N
        assert par.recovery_us < ser.recovery_us
        # Four containers, balanced reactors: close to a 4x makespan
        # cut.
        assert par.recovery_us <= ser.recovery_us / 2.0

    def test_recovery_time_scales_with_tail_length(self):
        """More frequent checkpoints -> shorter tail -> faster
        recovery (the bench's recovery-time curve in miniature)."""
        short_tail = fresh_bank()
        run_some_transfers(short_tail, count=16, seed=8)
        short_tail.durability.incremental_checkpoint()
        run_some_transfers(short_tail, count=2, seed=9)

        long_tail = fresh_bank()
        run_some_transfers(long_tail, count=16, seed=8)
        long_tail.durability.incremental_checkpoint()
        run_some_transfers(long_tail, count=14, seed=9)

        target = shared_nothing(4)
        quick = recover(
            target, sb.declarations(N),
            short_tail.durability.manifest,
            short_tail.durability.logs.values())
        slow = recover(
            target, sb.declarations(N),
            long_tail.durability.manifest,
            long_tail.durability.logs.values())
        assert quick.entries_replayed < slow.entries_replayed
        assert quick.recovery_us < slow.recovery_us

    def test_recovery_onto_different_architecture(self):
        database, image = self._crashed_bank()
        report = recover(
            shared_everything_with_affinity(4), sb.declarations(N),
            image.manifest, image.to_logs())
        cert = certify_crash_recovery(database, image,
                                      report.database)
        assert cert["ok"], cert
        report.database.run(sb.reactor_name(0), "deposit_checking",
                            1.0)

    def test_migrated_reactor_recovers_from_both_logs(self):
        """A reactor whose history spans containers (it migrated) is
        one partition merged across logs."""
        database = fresh_bank("group")
        run_some_transfers(database, count=8, seed=11)
        moved = sb.reactor_name(0)
        dst = (database.reactor(moved).container.container_id + 1) % 4
        database.migrate(moved, dst)
        database.scheduler.run()
        run_some_transfers(database, count=8, seed=12)
        report = recover(
            shared_nothing(4, durability=durable("group")),
            sb.declarations(N), take_checkpoint(fresh_bank()),
            database.durability.logs.values())
        assert state_of(report.database) == state_of(database)


class TestFailoverInterplay:
    def test_promotion_keeps_durability_coherent(self):
        replication = ReplicationConfig(replicas_per_container=1,
                                        mode="sync")
        database = fresh_bank("group", replication=replication)
        run_some_transfers(database, count=8, seed=13)
        database.replication.kill_and_promote(0)
        run_some_transfers(database, count=8, seed=14)
        image = database.durability.crash()
        recovered = recover(
            shared_nothing(4, durability=durable("group")),
            sb.declarations(N), image.manifest,
            image.to_logs()).database
        cert = certify_crash_recovery(database, image, recovered)
        assert cert["ok"], cert
        assert cert["zero_acked_loss"]
        # The promoted container's flusher adopted the new log.
        flusher = database.durability.flushers[0]
        assert flusher.flushed_records == \
            len(database.durability.installed[0])


class TestDurabilityStats:
    def test_stats_surface_flush_pipeline(self):
        database = fresh_bank("group")
        run_some_transfers(database, count=6)
        stats = database.durability_stats()
        assert stats["mode"] == "group"
        assert stats["acked_commits"] > 0
        total_fsyncs = sum(f["fsyncs"]
                           for f in stats["flushers"].values())
        assert total_fsyncs > 0
        bare = ReactorDatabase(shared_nothing(2), sb.declarations(N))
        assert bare.durability_stats() == {"mode": "none"}

    def test_bare_enable_durability_defaults_to_async(self):
        database = ReactorDatabase(shared_nothing(2),
                                   sb.declarations(N))
        manager = enable_durability(database)
        assert manager.mode == "async"
        assert enable_durability(database) is manager
