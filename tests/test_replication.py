"""Replication subsystem: shipping, acks, read routing, failover."""

import pytest

from repro.bench.harness import run_measurement
from repro.core.database import ReactorDatabase
from repro.core.deployment import DeploymentConfig, shared_nothing
from repro.durability import enable_durability
from repro.errors import (
    DeploymentError,
    ReplicationError,
    TransactionAbort,
)
from repro.formal.audit import certify_replication
from repro.replication import ReplicationConfig
from repro.workloads import smallbank as sb

N = 8


def replicated_bank(mode="sync", replicas=1, read_from_replicas=False,
                    n_containers=2, async_lag_us=200.0,
                    n_customers=N):
    config = ReplicationConfig(
        replicas_per_container=replicas, mode=mode,
        read_from_replicas=read_from_replicas,
        async_lag_us=async_lag_us)
    database = ReactorDatabase(
        shared_nothing(n_containers, replication=config),
        sb.declarations(n_customers))
    sb.load(database, n_customers)
    return database


def run_transfers(database, count=10, n_customers=N):
    committed = 0
    for i in range(count):
        src = sb.reactor_name(i % n_customers)
        dst = sb.reactor_name((i + 1) % n_customers)
        try:
            database.run(src, "transfer", src, dst, 2.0)
            committed += 1
        except TransactionAbort:
            pass
    return committed


def bank_state(database, n_customers=N):
    return {
        (name, table): database.table_rows(name, table)
        for name in (sb.reactor_name(i) for i in range(n_customers))
        for table in ("savings", "checking")
    }


class TestConfig:
    def test_round_trip(self):
        config = ReplicationConfig(replicas_per_container=2,
                                   mode="async",
                                   read_from_replicas=True,
                                   async_lag_us=50.0)
        assert ReplicationConfig.from_dict(config.to_dict()) == config

    def test_defaults_disabled(self):
        assert not ReplicationConfig().enabled

    def test_mode_needs_replicas(self):
        with pytest.raises(DeploymentError):
            ReplicationConfig(replicas_per_container=0, mode="sync")

    def test_replicas_need_a_mode(self):
        """replicas with mode 'none' would silently build nothing —
        exactly the config-typo class strict validation exists for."""
        with pytest.raises(DeploymentError, match="none"):
            ReplicationConfig(replicas_per_container=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DeploymentError):
            ReplicationConfig(replicas_per_container=1, mode="eventual")

    def test_read_routing_needs_replicas(self):
        with pytest.raises(DeploymentError):
            ReplicationConfig(read_from_replicas=True)

    @pytest.mark.parametrize("scheme", ["2pl_nowait", "2pl_waitdie",
                                        "none"])
    def test_read_routing_requires_occ(self, scheme):
        """Replica log applies bypass locking; only OCC validation
        catches a read overlapping an apply, so read routing under
        any other scheme is rejected at deployment validation."""
        config = ReplicationConfig(replicas_per_container=1,
                                   mode="sync",
                                   read_from_replicas=True)
        with pytest.raises(DeploymentError, match="occ"):
            shared_nothing(2, cc_scheme=scheme, replication=config)

    def test_replication_without_read_routing_allows_2pl(self):
        config = ReplicationConfig(replicas_per_container=1,
                                   mode="sync")
        database = ReactorDatabase(
            shared_nothing(2, cc_scheme="2pl_nowait",
                           replication=config),
            sb.declarations(4))
        sb.load(database, 4)
        database.run(sb.reactor_name(0), "deposit_checking", 1.0)
        assert certify_replication(database)["ok"]

    def test_unknown_key_rejected(self):
        with pytest.raises(DeploymentError, match="replicaz"):
            ReplicationConfig.from_dict({"replicaz": 3})

    def test_deployment_json_round_trip(self):
        deployment = shared_nothing(
            2, replication=ReplicationConfig(
                replicas_per_container=1, mode="sync"))
        restored = DeploymentConfig.from_json(deployment.to_json())
        assert restored.replication == deployment.replication

    def test_manager_refuses_disabled_config(self):
        from repro.replication import ReplicationManager

        database = ReactorDatabase(shared_nothing(1),
                                   sb.declarations(2))
        with pytest.raises(ReplicationError):
            ReplicationManager(database, ReplicationConfig())


class TestShipping:
    def test_sync_replicas_apply_every_record(self):
        database = replicated_bank(mode="sync")
        run_transfers(database, 10)
        manager = database.replication
        metric = database.telemetry.registry.value
        shipped = metric("replication_records_shipped_total")
        assert shipped > 0
        assert metric("replication_records_applied_total") == shipped \
            * database.deployment.replication.replicas_per_container
        for cid, group in manager.replicas.items():
            for replica in group:
                assert replica.applied_records == \
                    database.durability.installed[cid]

    def test_async_applies_after_bounded_lag(self):
        database = replicated_bank(mode="async", async_lag_us=5_000.0)
        outcome = {}
        database.submit(sb.reactor_name(0), "deposit_checking", 10.0,
                        on_done=lambda r, ok, why, res:
                        outcome.update(ok=ok))
        # Drain past the commit but not past the apply lag.
        database.scheduler.run(until=1_000.0)
        metric = database.telemetry.registry.value
        assert outcome["ok"]
        assert metric("replication_records_shipped_total") == 1
        assert metric("replication_records_applied_total") == 0
        database.scheduler.run()
        assert metric("replication_records_applied_total") == 1
        assert metric("replication_lag_us")["max"] >= 5_000.0

    def test_sync_commit_latency_includes_ack(self):
        plain = ReactorDatabase(shared_nothing(2),
                                sb.declarations(N))
        sb.load(plain, N)
        replicated = replicated_bank(mode="sync")

        def latency(database):
            start = database.scheduler.now
            database.run(sb.reactor_name(0), "deposit_checking", 1.0)
            return database.scheduler.now - start

        costs = replicated.costs
        minimum_ack = costs.repl_ship_delay + costs.repl_ack_delay
        assert latency(replicated) >= latency(plain) + minimum_ack
        assert replicated.telemetry.registry.value(
            "replication_sync_commit_waits_total") == 1

    def test_replication_implies_durability_and_is_shared(self):
        database = replicated_bank()
        assert database.durability is database.replication.durability
        # A later explicit enable must return the same manager, not
        # detach the logs replication ships from.
        assert enable_durability(database) is database.durability

    def test_counters_are_read_from_the_registry_only(self):
        database = replicated_bank()
        run_transfers(database, 4)
        assert database.telemetry.registry.value(
            "replication_records_shipped_total") > 0
        assert "replication" not in database.abort_counts()


class TestReadReplicaRouting:
    def test_balance_routed_to_replica(self):
        database = replicated_bank(read_from_replicas=True)
        total = database.run(sb.reactor_name(0), "balance")
        assert total == 2 * sb.INITIAL_BALANCE
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1

    def test_explicit_read_only_flag_routes(self):
        database = replicated_bank(read_from_replicas=True)
        done = {}
        database.submit(sb.reactor_name(0), "balance",
                        read_only=True,
                        on_done=lambda r, ok, why, res:
                        done.update(ok=ok, res=res))
        database.scheduler.run()
        assert done["ok"] and done["res"] == 2 * sb.INITIAL_BALANCE
        assert database.telemetry.registry.value(
            "replication_reads_routed_total") == 1

    def test_bounded_staleness_window_observable(self):
        database = replicated_bank(mode="async",
                                   read_from_replicas=True,
                                   async_lag_us=5_000.0)
        database.run(sb.reactor_name(0), "deposit_checking", 100.0)
        # The run() above drained everything, apply included: replica
        # reads now see the deposit (monotonic catch-up)...
        assert database.run(sb.reactor_name(0), "balance") == \
            2 * sb.INITIAL_BALANCE + 100.0
        # ...but a read inside the lag window sees the stale prefix.
        database.submit(sb.reactor_name(0), "deposit_checking", 50.0)
        now = database.scheduler.now
        database.scheduler.run(until=now + 1_000.0)
        stale = {}
        database.submit(sb.reactor_name(0), "balance",
                        on_done=lambda r, ok, why, res:
                        stale.update(res=res))
        database.scheduler.run(until=now + 2_000.0)
        assert stale["res"] == 2 * sb.INITIAL_BALANCE + 100.0
        database.scheduler.run()
        assert database.run(sb.reactor_name(0), "balance") == \
            2 * sb.INITIAL_BALANCE + 150.0

    def test_read_only_transaction_cannot_write(self):
        database = replicated_bank(read_from_replicas=True)
        with pytest.raises(TransactionAbort, match="read-only"):
            database.run(sb.reactor_name(0), "deposit_checking", 1.0,
                         read_only=True)
        # Replica state untouched.
        assert database.run(sb.reactor_name(0), "balance") == \
            2 * sb.INITIAL_BALANCE

    def test_replica_read_cannot_escape_its_container(self):
        """A replica's shadows are a consistent prefix of *its own*
        primary only; letting the transaction call into another
        container's live primary could mix prefix epochs into a torn
        cross-container read — so the call aborts."""
        from repro.core.reactor import ReactorType
        from repro.relational import float_col, make_schema, str_col

        KV = ReactorType("ReplKv", lambda: [
            make_schema("kv", [str_col("k"), float_col("v")], ["k"]),
        ])

        @KV.procedure
        def get_local(ctx):
            return ctx.lookup("kv", "k")["v"]

        @KV.procedure(read_only=True)
        def read_remote(ctx, other):
            fut = yield ctx.call(other, "get_local")
            return (yield ctx.get(fut))

        config = ReplicationConfig(replicas_per_container=1,
                                   mode="sync",
                                   read_from_replicas=True)
        database = ReactorDatabase(
            shared_nothing(2, replication=config),
            [("a", KV), ("b", KV)])  # modulo placement: a->0, b->1
        for name in ("a", "b"):
            database.load(name, "kv", [{"k": "k", "v": 1.0}])
        with pytest.raises(TransactionAbort, match="outside"):
            database.run("a", "read_remote", "b")
        # Same-container (self) reads on the replica still work.
        assert database.run("a", "get_local", read_only=True) == 1.0

    def test_writes_stay_on_primary_without_flag(self):
        database = replicated_bank(read_from_replicas=True)
        database.run(sb.reactor_name(0), "deposit_checking", 5.0)
        assert database.run(sb.reactor_name(0), "balance") == \
            2 * sb.INITIAL_BALANCE + 5.0


class TestAudit:
    def test_certifies_clean_run(self):
        database = replicated_bank(replicas=2)
        run_transfers(database, 12)
        report = certify_replication(database)
        assert report["ok"]
        assert len(report["replicas"]) == 4  # 2 containers x 2
        assert all(r["prefix_ok"] and r["commit_order_ok"]
                   and r["state_ok"] for r in report["replicas"])

    def test_detects_tampered_replica_state(self):
        database = replicated_bank()
        run_transfers(database, 5)
        replica = database.replication.replicas[0][0]
        shadow = replica.shadow(replica.shadow_names()[0])
        table = shadow.table("checking")
        record = next(iter(table.iter_records()))
        record.value = dict(record.value, balance=-1.0)
        report = certify_replication(database)
        assert not report["ok"]
        assert any(not r["state_ok"] for r in report["replicas"])

    def test_detects_truncated_shipped_sequence(self):
        database = replicated_bank()
        run_transfers(database, 5)
        # Drop a mid-sequence record from the reference order: the
        # replica's applied sequence is no longer a prefix.
        del database.durability.installed[0][0]
        report = certify_replication(database)
        assert not report["ok"]

    def test_disabled_replication_reports_clean(self):
        database = ReactorDatabase(shared_nothing(1),
                                   sb.declarations(2))
        report = certify_replication(database)
        assert report == {"enabled": False, "ok": True,
                          "replicas": [], "failovers": []}

    def test_certifies_unloaded_database(self):
        """Empty (declared-but-unfilled) tables must not fail the
        state check — untouched and emptied are the same state."""
        config = ReplicationConfig(replicas_per_container=1,
                                   mode="sync")
        database = ReactorDatabase(
            shared_nothing(2, replication=config),
            sb.declarations(4))
        assert certify_replication(database)["ok"]


class TestFailover:
    def test_promotion_preserves_committed_state(self):
        database = replicated_bank(mode="sync")
        run_transfers(database, 10)
        before = bank_state(database)
        victims = [name for i in range(N)
                   if (name := sb.reactor_name(i)) in database
                   and database.reactor(name).container.container_id
                   == 0]
        database.replication.kill_and_promote(0)
        database.scheduler.run()
        assert bank_state(database) == before
        report = certify_replication(database)
        assert report["ok"]
        assert report["failovers"][0]["zero_committed_loss"]
        # Routing was re-registered: the victims' reactors now live on
        # the promoted replica container.
        promoted = database.containers[0]
        for name in victims:
            assert database.reactor(name).container is promoted

    def test_promoted_container_accepts_new_transactions(self):
        database = replicated_bank(mode="sync")
        run_transfers(database, 6)
        database.replication.kill_and_promote(0)
        database.scheduler.run()
        before = database.run(sb.reactor_name(0), "balance")
        database.run(sb.reactor_name(0), "deposit_checking", 7.0)
        assert database.run(sb.reactor_name(0), "balance") == \
            pytest.approx(before + 7.0)
        # New commits append to the promoted log and certify.
        assert certify_replication(database)["ok"]

    def test_promote_requires_a_failed_primary(self):
        """Promoting over a live primary would fork the shipped
        order (two listeners appending divergent histories)."""
        database = replicated_bank(mode="sync")
        with pytest.raises(ReplicationError, match="alive"):
            database.replication.promote(0)

    def test_unreplicated_container_cannot_promote(self):
        database = ReactorDatabase(shared_nothing(1),
                                   sb.declarations(2))
        with pytest.raises(AttributeError):
            database.replication.kill_and_promote(0)

    def test_kill_finishes_queued_roots_without_callback(self):
        database = replicated_bank(mode="sync")
        victim = next(
            sb.reactor_name(i) for i in range(N)
            if database.reactor(sb.reactor_name(i))
            .container.container_id == 0)
        root = database.submit(victim, "deposit_checking", 1.0)
        assert not root.finished  # queued, dispatch not yet run
        database.replication.kill_primary(0)
        assert root.finished  # drained as aborted, not left in flight
        metric = database.telemetry.registry.value
        assert metric("replication_failover_aborts_total") == 1
        # Roots refused at submit are availability impact too.
        database.submit(victim, "deposit_checking", 1.0)
        assert metric("replication_failover_aborts_total") == 2

    def test_promotion_preserves_cc_stats(self):
        database = replicated_bank(mode="sync")
        run_transfers(database, 8)
        validations_before = database.abort_counts()["validations"]
        assert validations_before > 0
        database.replication.kill_and_promote(0)
        database.scheduler.run()
        assert database.abort_counts()["validations"] >= \
            validations_before

    def test_failed_container_refuses_new_roots(self):
        database = replicated_bank(mode="sync")
        database.replication.kill_primary(0)
        victim = next(
            sb.reactor_name(i) for i in range(N)
            if database.reactor(sb.reactor_name(i))
            .container.container_id == 0)
        with pytest.raises(TransactionAbort, match="failed"):
            database.run(victim, "deposit_checking", 1.0)

    def test_mid_run_kill_sync_loses_no_reported_commit(self):
        """The acceptance scenario, deterministically scaled down:
        concurrent workers, primary killed mid-measurement, every
        transaction reported committed must have its redo record on a
        surviving log."""
        n_customers = 12
        database = replicated_bank(mode="sync",
                                   n_customers=n_customers)
        workload = sb.SmallbankWorkload(n_customers)
        database.scheduler.at(
            15_000.0, database.replication.kill_and_promote, 0)
        result = run_measurement(
            database, 4, workload.factory_for,
            warmup_us=2_000.0, measure_us=25_000.0, n_epochs=2)
        assert result.summary.committed > 0
        report = certify_replication(database)
        assert report["ok"]
        assert all(f["zero_committed_loss"]
                   for f in report["failovers"])
        surviving = {
            tid for tids in database.durability.installed_tids.values()
            for tid in tids}
        surviving |= database.containers[0].applied_tids
        lost = [s.txn_id for s in result.raw_stats
                if s.committed and s.writes > 0
                and s.commit_tid not in surviving]
        assert lost == []
        assert database.telemetry.registry.value(
            "replication_failover_aborts_total") >= 0

    def test_recovery_onto_replicated_deployment_seeds_replicas(self):
        """recover() may target any deployment — including one with
        replicas, which must be seeded with the recovered image so
        read routing and later failover work immediately."""
        from repro.durability import (
            enable_durability,
            recover,
            take_checkpoint,
        )

        source = ReactorDatabase(shared_nothing(2),
                                 sb.declarations(N))
        sb.load(source, N)
        manager = enable_durability(source)
        run_transfers(source, 8)
        checkpoint = take_checkpoint(source)
        target = ReplicationConfig(replicas_per_container=1,
                                   mode="sync",
                                   read_from_replicas=True)
        recovered = recover(
            shared_nothing(2, replication=target),
            sb.declarations(N), checkpoint,
            manager.logs.values()).database
        # Replica-routed read works and sees the recovered state.
        expected = (source.run(sb.reactor_name(0), "balance"))
        assert recovered.run(sb.reactor_name(0), "balance") == expected
        assert recovered.telemetry.registry.value(
            "replication_reads_routed_total") == 1
        assert certify_replication(recovered)["ok"]
        # And the recovered replicas can take over.
        recovered.run(sb.reactor_name(0), "deposit_checking", 2.0)
        recovered.replication.kill_and_promote(0)
        recovered.scheduler.run()
        assert certify_replication(recovered)["ok"]

    def test_sync_kill_inside_ack_window_stays_atomic(self):
        """A cross-container transfer whose primary dies at *any*
        instant of the commit/ship/ack window must never end up half
        applied: sync drains the ship channel at the kill, so the
        promoted replica holds the debit whenever the surviving
        container holds the credit."""
        src, dst = sb.reactor_name(0), sb.reactor_name(1)

        def run_with_kill(kill_at):
            database = replicated_bank(mode="sync")
            outcome = {}
            database.submit(src, "transfer", src, dst, 5.0,
                            on_done=lambda r, ok, why, res:
                            outcome.update(ok=ok))
            if kill_at is not None:
                database.scheduler.at(
                    kill_at, database.replication.kill_and_promote, 0)
            database.scheduler.run()
            return database, outcome

        database, outcome = run_with_kill(None)
        assert outcome["ok"]
        window_end = int(database.scheduler.now) + 1
        for kill_at in range(1, window_end):
            database, outcome = run_with_kill(float(kill_at))
            money = sum(
                row["balance"]
                for i in range(N)
                for table in ("savings", "checking")
                for row in database.table_rows(sb.reactor_name(i),
                                               table))
            assert money == 2 * sb.INITIAL_BALANCE * N, \
                f"atomicity broken at kill t={kill_at}"
            report = certify_replication(database)
            assert report["ok"], kill_at
            assert not report["failovers"][0]["atomicity_breaks"]
            # The commit may be reported either way depending on when
            # the kill landed, but a reported commit must be durable
            # on the promoted container (via drained apply pre-kill,
            # or via the normal path when it committed post-promote).
            if outcome["ok"]:
                assert database.run(src, "balance") == \
                    2 * sb.INITIAL_BALANCE - 5.0

    def test_sync_in_doubt_commit_resolves_without_promotion(self):
        """Kill inside the ack window with promotion deferred: the
        drained replicas all hold the record, so the in-doubt commit
        is truthfully reported committed — a client retry would
        otherwise double-apply after the eventual promotion."""
        src, dst = sb.reactor_name(0), sb.reactor_name(1)
        probe = replicated_bank(mode="sync")
        done = {}
        probe.submit(src, "transfer", src, dst, 5.0,
                     on_done=lambda r, ok, why, res:
                     done.update(t=probe.scheduler.now))
        probe.scheduler.run()
        kill_at = done["t"] - 1.5  # inside the ack window

        database = replicated_bank(mode="sync")
        outcome = {}
        database.submit(src, "transfer", src, dst, 5.0,
                        on_done=lambda r, ok, why, res:
                        outcome.update(ok=ok))
        database.scheduler.at(
            kill_at, database.replication.kill_primary, 0)
        database.scheduler.run()
        assert outcome["ok"]  # resolved from replica coverage
        database.replication.promote(0)
        database.scheduler.run()
        assert database.run(src, "balance") == \
            2 * sb.INITIAL_BALANCE - 5.0
        assert certify_replication(database)["ok"]

    def test_async_failover_reports_loss_window(self):
        database = replicated_bank(mode="async",
                                   async_lag_us=50_000.0)
        outcomes = []
        for i in range(6):
            database.submit(sb.reactor_name(0), "deposit_checking",
                            1.0, on_done=lambda r, ok, why, res:
                            outcomes.append(ok))
        # Commit everything but let no apply land, then crash.
        database.scheduler.run(until=5_000.0)
        assert outcomes and all(outcomes)
        database.replication.kill_and_promote(0)
        database.scheduler.run()
        report = certify_replication(database)
        event = report["failovers"][0]
        # Async: committed-but-unshipped suffix is lost (bounded by
        # the lag window), and the audit reports exactly how much.
        assert event["lost_records"] == 6
        assert event["zero_committed_loss"]  # nothing was *acked*
        assert report["ok"]
