"""WAL edge cases: torn tails, truncation, durability config."""

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
from repro.durability.wal import RedoLog
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


def serialized_log_with_records(min_records=3):
    database = fresh_bank()
    manager = enable_durability(database)
    run_transfers(database)
    log = max(manager.logs.values(), key=len)
    assert len(log) >= min_records
    return database, manager, log


class TestTornTail:
    def test_torn_last_line_detected_and_dropped(self):
        __, ___, log = serialized_log_with_records()
        text = log.dump_json_lines()
        torn = text[:-25]  # crash mid-write of the final record
        restored = RedoLog.load_json_lines(log.container_id, torn)
        assert restored.torn_tail
        assert restored.records == log.records[:-1]

    def test_clean_log_has_no_torn_tail(self):
        __, ___, log = serialized_log_with_records()
        restored = RedoLog.load_json_lines(
            log.container_id, log.dump_json_lines())
        assert not restored.torn_tail
        assert restored.records == log.records

    def test_replay_stops_at_last_complete_record(self):
        """Recovery from a torn log equals recovery from the log
        explicitly cut at the last complete record."""
        database, manager, log = serialized_log_with_records()
        text = log.dump_json_lines()
        torn = RedoLog.load_json_lines(log.container_id, text[:-10])
        cut = RedoLog(log.container_id, log.records[:-1])
        base = take_checkpoint(fresh_bank())
        others = [lg for cid, lg in manager.logs.items()
                  if cid != log.container_id]
        from_torn = recover(shared_nothing(3), sb.declarations(N),
                            base, [torn, *others]).database
        from_cut = recover(shared_nothing(3), sb.declarations(N),
                           base, [cut, *others]).database
        assert state_of(from_torn) == state_of(from_cut)

    def test_mid_log_corruption_raises(self):
        __, ___, log = serialized_log_with_records()
        lines = log.dump_json_lines().splitlines()
        lines[0] = lines[0][:-8]  # not the tail: real corruption
        with pytest.raises(ValueError, match="corrupt redo record"):
            RedoLog.load_json_lines(log.container_id,
                                    "\n".join(lines))

    def test_torn_json_variants(self):
        """Half a JSON object, a wrong shape, and a non-JSON line all
        count as torn when they end the file."""
        __, ___, log = serialized_log_with_records()
        good = log.dump_json_lines()
        for tail in ('{"tid": 7, "entr',
                     '{"unexpected": "shape"}',
                     "garbage###"):
            restored = RedoLog.load_json_lines(
                log.container_id, good + "\n" + tail)
            assert restored.torn_tail
            assert restored.records == log.records


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
