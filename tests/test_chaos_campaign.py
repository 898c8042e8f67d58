"""End-to-end tests of the chaos campaign runner.

Covers the campaign loop (pass rate, reproducibility, bug catching),
episode isolation (back-to-back episodes share no state), the
combined-fault crash-recovery drill, and chaos-found runtime
regressions pinned as clean-run episodes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.chaos import (
    CampaignConfig,
    EpisodeConfig,
    FaultAction,
    FaultSchedule,
    episode_config,
    episode_schedule,
    generate_schedule,
    run_campaign,
    run_episode,
)

TOOLS = Path(__file__).parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------

def test_tiny_campaign_passes_and_is_byte_reproducible():
    config = CampaignConfig(episodes=6, master_seed=7, tiny=True)
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.pass_rate == 1.0
    assert first.to_json() == second.to_json()


def test_campaign_catches_and_shrinks_an_armed_bug():
    report = run_campaign(CampaignConfig(
        episodes=6, master_seed=11, tiny=True,
        inject_bug="drop_shipped_record", shrink=True,
        shrink_budget=40))
    assert report.pass_rate < 1.0
    assert report.repros, "a caught bug must yield a repro file"
    for repro in report.repros:
        assert repro["schema"] == "chaos-repro-v1"
        assert repro["expected_ok"] is False
        assert repro["failure_kinds"]
        # The repro must replay to the same failure from pure data.
        config = EpisodeConfig.from_dict(repro["config"])
        schedule = FaultSchedule.from_dict(repro["schedule"])
        result = run_episode(config, schedule)
        assert not result.ok
        assert set(repro["failure_kinds"]) <= set(result.failure_kinds)
    # Failing episodes exported their trace for the CI artifact.
    assert first_trace_is_valid_chrome_json(report)


def first_trace_is_valid_chrome_json(report) -> bool:
    assert report.traces
    name, payload = report.traces[0]
    assert name.endswith(".trace.json")
    events = json.loads(payload)["traceEvents"]
    return isinstance(events, list) and len(events) > 0


def test_episode_derivation_is_deterministic():
    for index in (0, 3, 9):
        first = episode_config(42, index, tiny=True)
        second = episode_config(42, index, tiny=True)
        assert first == second
        assert episode_schedule(first, tiny=True) == \
            episode_schedule(second, tiny=True)


def test_campaign_counters_use_catalogued_names():
    check_trace = load_tool("check_trace")
    report = run_campaign(CampaignConfig(episodes=2, master_seed=7,
                                         tiny=True))
    snapshot = report.metrics.snapshot()
    assert any(name.startswith("chaos_episodes_total")
               for name in snapshot)
    assert check_trace.check_metrics(snapshot) == []


# ----------------------------------------------------------------------
# Episode isolation (satellite: no cross-episode state)
# ----------------------------------------------------------------------

def test_back_to_back_episodes_are_identical():
    """Two runs of one episode in the same process must agree on the
    full result dict — recorder attach/detach and telemetry teardown
    leave nothing behind that could bleed into the next episode."""
    config = episode_config(7, 4, tiny=True)
    schedule = episode_schedule(config, tiny=True)
    first = run_episode(config, schedule)
    second = run_episode(config, schedule)
    assert first.to_dict() == second.to_dict()
    assert first.digest == second.digest


def test_interleaved_episodes_do_not_contaminate_each_other():
    config_a = episode_config(7, 0, tiny=True)
    config_b = episode_config(7, 1, tiny=True)
    schedule_a = episode_schedule(config_a, tiny=True)
    schedule_b = episode_schedule(config_b, tiny=True)
    baseline_a = run_episode(config_a, schedule_a).to_dict()
    run_episode(config_b, schedule_b)
    assert run_episode(config_a, schedule_a).to_dict() == baseline_a


# ----------------------------------------------------------------------
# Combined faults (satellite: crash during in-flight migration with a
# sync replica)
# ----------------------------------------------------------------------

def test_crash_image_during_inflight_migration_with_sync_replica():
    config = EpisodeConfig(
        workload="smallbank", cc_scheme="occ", durability_mode="group",
        replication_mode="sync", replicas=1, n_containers=2,
        n_txns=24, txn_gap_us=25.0, seed=1234)
    schedule = FaultSchedule(seed=1234, horizon_us=config.horizon_us,
                             actions=(
        FaultAction(at_us=200.0, kind="migrate",
                    params=(("dst", 1), ("reactor_index", 0))),
        # Copy + flip span a handful of microseconds: this crash image
        # is taken while the migration is in flight.
        FaultAction(at_us=201.0, kind="crash_image", params=()),
        FaultAction(at_us=420.0, kind="crash_image", params=()),
    ))
    result = run_episode(config, schedule)
    assert result.ok, result.failures
    assert result.injection["applied"].get("migrate") == 1
    assert result.injection["applied"].get("crash_image") == 2
    crash = result.certificates["crash_recovery"]
    assert crash["enabled"] and crash["ok"]
    assert crash["images"] == 2
    migration = result.certificates["migration"]
    assert migration["enabled"] and migration["ok"]


# ----------------------------------------------------------------------
# Chaos-found runtime regressions, pinned as clean-run episodes
# ----------------------------------------------------------------------

def test_migration_off_promoted_container_routes_to_destination():
    """Found by the campaign (master seed 7, tiny, episode 20): after
    a crash+promote, the promoted container kept resolving sub-calls
    through its shadow table, so a later migration off it left writes
    landing in the abandoned source copy (src_quiet violation)."""
    config = EpisodeConfig(
        workload="ycsb", cc_scheme="occ", durability_mode="async",
        replication_mode="sync", replicas=1, snapshot_reads=True,
        n_containers=2, n_txns=24, txn_gap_us=25.0, seed=420705245)
    schedule = FaultSchedule(seed=420705245,
                             horizon_us=config.horizon_us, actions=(
        FaultAction(at_us=41.422, kind="crash_promote",
                    params=(("container", 1),)),
        FaultAction(at_us=296.268, kind="migrate",
                    params=(("dst", 0), ("reactor_index", 29))),
    ))
    result = run_episode(config, schedule)
    assert result.ok, result.failures


def test_migration_onto_promoted_container_certifies():
    """Found by the campaign (master seed 42, episode 8): a reactor
    migrated *onto* a promoted container is a live reactor, not a
    shadow — the replication certificate must scope its state check to
    the container's current residents."""
    config = EpisodeConfig(
        workload="smallbank", cc_scheme="2pl_nowait",
        durability_mode="group", replication_mode="async", replicas=1,
        n_containers=2, n_txns=32, txn_gap_us=25.0, seed=99)
    schedule = FaultSchedule(seed=99, horizon_us=config.horizon_us,
                             actions=(
        FaultAction(at_us=150.0, kind="crash_promote",
                    params=(("container", 1),)),
        FaultAction(at_us=400.0, kind="migrate",
                    params=(("dst", 1), ("reactor_index", 0))),
    ))
    result = run_episode(config, schedule)
    assert result.ok, result.failures
    assert result.injection["applied"].get("migrate") == 1


def test_destination_failover_after_flip_tolerated():
    """Found by the campaign (master seed 42, episode 3): killing the
    destination container after a completed migration replaces its
    log; the migration certificate reports log_checked=false instead
    of failing the frozen replay."""
    config = EpisodeConfig(
        workload="ycsb", cc_scheme="occ", durability_mode="group",
        replication_mode="sync", replicas=1, n_containers=2,
        n_txns=32, txn_gap_us=25.0, seed=5)
    schedule = FaultSchedule(seed=5, horizon_us=config.horizon_us,
                             actions=(
        FaultAction(at_us=200.0, kind="migrate",
                    params=(("dst", 1), ("reactor_index", 0))),
        FaultAction(at_us=600.0, kind="crash_promote",
                    params=(("container", 1),)),
    ))
    result = run_episode(config, schedule)
    assert result.ok, result.failures
    migrations = [entry for entry
                  in result.certificates["migration"]["migrations"]
                  if entry["state"] == "done"
                  and not entry["superseded"]]
    assert migrations and all(not entry["log_checked"]
                              for entry in migrations)


# ----------------------------------------------------------------------
# Skipped actions stay deterministic
# ----------------------------------------------------------------------

def test_inapplicable_actions_are_skipped_not_errored():
    config = EpisodeConfig(workload="smallbank", n_containers=2,
                           n_txns=8, seed=3)  # no replication/durability
    spec = config.schedule_spec()
    schedule = generate_schedule(3, spec).replace_actions([
        FaultAction(at_us=50.0, kind="crash_promote",
                    params=(("container", 0),)),
        FaultAction(at_us=60.0, kind="lag_spike",
                    params=(("container", 0), ("extra_us", 100.0))),
        FaultAction(at_us=70.0, kind="rebalance", params=()),
    ])
    result = run_episode(config, schedule)
    assert result.ok, result.failures
    assert result.injection["skipped"].get("crash_promote") == 1
    assert result.injection["skipped"].get("lag_spike") == 1
    assert result.injection["applied"].get("rebalance") == 1
