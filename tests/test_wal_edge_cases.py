"""WAL edge cases: truncation, durability config."""

import json

import pytest

from repro import DurabilityConfig
from repro.core.database import ReactorDatabase
from repro.core.deployment import DeploymentConfig, shared_nothing
from repro.durability import (
    enable_durability,
    recover,
    take_checkpoint,
)
from repro.errors import DeploymentError, TransactionAbort
from repro.workloads import smallbank as sb

N = 6


def fresh_bank(durability=None):
    database = ReactorDatabase(
        shared_nothing(3, durability=durability),
        sb.declarations(N))
    sb.load(database, N)
    return database


def run_transfers(database, count=12, seed=4):
    import random

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


def state_of(database):
    return {
        (name, table): database.table_rows(name, table)
        for name in database.reactor_names()
        for table in ("savings", "checking")
    }


class TestTruncationEquivalence:
    def test_checkpoint_truncation_equals_full_log_replay(self):
        """Recovery after checkpoint+truncation reaches exactly the
        state full-log replay reaches."""
        truncated = fresh_bank()
        mgr_t = enable_durability(truncated)
        run_transfers(truncated, count=8, seed=1)
        mgr_t.incremental_checkpoint()
        run_transfers(truncated, count=8, seed=2)

        full = fresh_bank()
        mgr_f = enable_durability(full)
        run_transfers(full, count=8, seed=1)
        run_transfers(full, count=8, seed=2)

        from_truncated = recover(
            shared_nothing(3), sb.declarations(N), mgr_t.manifest,
            mgr_t.logs.values()).database
        from_full = recover(
            shared_nothing(3), sb.declarations(N),
            take_checkpoint(fresh_bank()), mgr_f.logs.values()).database
        assert state_of(from_truncated) == state_of(from_full)
        assert state_of(from_truncated) == state_of(truncated)

    def test_truncated_through_watermark_recorded(self):
        database = fresh_bank()
        manager = enable_durability(database)
        run_transfers(database, count=8)
        before = {cid: len(log)
                  for cid, log in manager.logs.items()}
        manager.incremental_checkpoint()
        for cid, log in manager.logs.items():
            if before[cid]:
                assert log.truncated_through > 0
                assert len(log) == 0


class TestDurabilityConfigRoundTrip:
    @pytest.mark.parametrize("mode", ("sync", "group", "async"))
    def test_round_trips_through_deployment(self, mode):
        deployment = shared_nothing(
            3, durability=DurabilityConfig(enabled=True, mode=mode))
        data = deployment.to_dict()
        assert data["durability"] == {"enabled": True,
                                      "durability_mode": mode}
        restored = DeploymentConfig.from_dict(
            json.loads(deployment.to_json()))
        assert restored.durability == deployment.durability
        database = ReactorDatabase(restored, sb.declarations(N))
        assert database.durability is not None
        assert database.durability.mode == mode

    def test_disabled_round_trip_attaches_nothing(self):
        deployment = shared_nothing(3)
        restored = DeploymentConfig.from_json(deployment.to_json())
        assert not restored.durability.enabled
        database = ReactorDatabase(restored, sb.declarations(N))
        assert database.durability is None

    def test_unknown_durability_key_rejected(self):
        data = shared_nothing(2).to_dict()
        data["durability"] = {"enabled": True, "fsync": "always"}
        with pytest.raises(DeploymentError, match="unknown durability"):
            DeploymentConfig.from_dict(data)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DeploymentError, match="durability_mode"):
            DurabilityConfig(enabled=True, mode="eventually")

    def test_config_wins_over_implicit_replication_default(self):
        from repro.replication import ReplicationConfig

        deployment = shared_nothing(
            2,
            replication=ReplicationConfig(replicas_per_container=1,
                                          mode="sync"),
            durability=DurabilityConfig(enabled=True, mode="group"))
        database = ReactorDatabase(deployment, sb.declarations(N))
        # Replication's implicit enable_durability must not downgrade
        # the configured group mode to the legacy async default.
        assert database.durability.mode == "group"
