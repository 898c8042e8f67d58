"""Master-seeded campaigns: many episodes, one verdict, auto-repro.

From a single master seed the campaign deterministically derives, per
episode, a deployment config (workload × ``cc_scheme`` ×
``durability_mode`` × replication mode, under the deployment layer's
validity rules) and a fault schedule, runs the episode, and demands a
100% certificate pass rate.  A failing episode is re-run under full
tracing (the Chrome trace export lands next to the report for CI
artifact upload), shrunk with :mod:`repro.chaos.shrink`, and written
out as a minimal ``(seed, config, schedule)`` repro file that
``tests/test_chaos_regressions.py`` replays forever after.

The report is **byte-reproducible**: it contains only virtual-time
quantities and deterministic counters — no wall clock, no hostnames —
so two runs of ``run_campaign`` with the same arguments serialize to
identical JSON.  Campaign counters go through a
:class:`~repro.telemetry.metrics.MetricsRegistry` under the
``chaos_*`` catalog names, so ``tools/check_trace.py`` accepts them
like any other series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.chaos.episode import (
    BUG_TOGGLES,
    EpisodeConfig,
    EpisodeResult,
    run_episode,
)
from repro.chaos.schedule import FaultSchedule, generate_schedule
from repro.chaos.shrink import make_repro, shrink_schedule
from repro.sim.rng import RngFactory
from repro.telemetry.metrics import MetricsRegistry

CAMPAIGN_SCHEMA = "chaos-campaign-v1"

_WORKLOADS = ("smallbank", "smallbank", "ycsb", "tpcc")
#: ``(cc_scheme, snapshot reads forced)``: OCC twice, once with
#: ``snapshot_reads`` always on; any draw may still turn it on.
_SCHEMES = (("occ", False), ("occ", True), ("2pl_nowait", False),
            ("2pl_waitdie", False))
_DURABILITY = ("none", "group", "group", "sync", "async")
_REPLICATION = ("none", "none", "sync", "async")


@dataclass
class CampaignConfig:
    episodes: int = 25
    master_seed: int = 42
    tiny: bool = False
    #: Arm one deliberate bug toggle in every episode (pipeline
    #: self-test: the campaign must catch, shrink, and file it).
    inject_bug: str | None = None
    shrink: bool = True
    shrink_budget: int = 60
    #: Stop shrinking/refiling after this many distinct failures.
    max_repros: int = 5

    def __post_init__(self) -> None:
        if self.inject_bug is not None and \
                self.inject_bug not in BUG_TOGGLES:
            raise ValueError(
                f"unknown bug toggle {self.inject_bug!r}; expected "
                f"one of {', '.join(BUG_TOGGLES)}")


def episode_config(master_seed: int, index: int, tiny: bool = False,
                   inject_bug: str | None = None) -> EpisodeConfig:
    """Derive episode ``index``'s deployment config from the master
    seed (pure function — the repro files do not depend on it)."""
    rng = RngFactory(master_seed).stream(f"chaos/episode/{index}")
    workload = _WORKLOADS[rng.randrange(len(_WORKLOADS))]
    cc_scheme, forced = _SCHEMES[rng.randrange(len(_SCHEMES))]
    durability = _DURABILITY[rng.randrange(len(_DURABILITY))]
    replication = _REPLICATION[rng.randrange(len(_REPLICATION))]
    snapshot_reads = forced or rng.random() < 0.25
    read_from_replicas = (
        replication != "none"
        and (cc_scheme == "occ" or snapshot_reads)
        and rng.random() < 0.4)
    n_containers = 2 if tiny else rng.randint(2, 3)
    if workload == "tpcc":
        n_txns = 16 if tiny else 28
        gap = 60.0
    else:
        n_txns = 24 if tiny else 48
        gap = 25.0
    return EpisodeConfig(
        workload=workload,
        cc_scheme=cc_scheme,
        durability_mode=durability,
        replication_mode=replication,
        replicas=1 if replication != "none" else 0,
        read_from_replicas=read_from_replicas,
        snapshot_reads=snapshot_reads,
        n_containers=n_containers,
        n_txns=n_txns,
        txn_gap_us=gap,
        scale=1,
        seed=rng.randrange(2 ** 31),
        inject_bug=inject_bug,
    )


def episode_schedule(config: EpisodeConfig,
                     tiny: bool = False) -> FaultSchedule:
    spec = config.schedule_spec(min_actions=1 if tiny else 2,
                                max_actions=3 if tiny else 5)
    return generate_schedule(config.seed, spec)


@dataclass
class CampaignReport:
    config: CampaignConfig
    episodes: list[dict[str, Any]] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    repros: list[dict[str, Any]] = field(default_factory=list)
    #: ``(file name, Chrome-trace JSON)`` exports of failing episodes.
    traces: list[tuple[str, str]] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def passed(self) -> int:
        return sum(1 for episode in self.episodes if episode["ok"])

    @property
    def pass_rate(self) -> float:
        if not self.episodes:
            return 1.0
        return self.passed / len(self.episodes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "master_seed": self.config.master_seed,
            "episodes": len(self.episodes),
            "tiny": self.config.tiny,
            "inject_bug": self.config.inject_bug,
            "passed": self.passed,
            "failed": len(self.episodes) - self.passed,
            "pass_rate": round(self.pass_rate, 6),
            "counters": self.metrics.snapshot(),
            "episode_results": self.episodes,
            "failures": self.failures,
            "repros": [repro["name"] for repro in self.repros],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=repr) + "\n"


def _episode_row(index: int, config: EpisodeConfig,
                 schedule: FaultSchedule,
                 result: EpisodeResult) -> dict[str, Any]:
    return {
        "episode": index,
        "workload": config.workload,
        "cc_scheme": config.cc_scheme,
        "durability_mode": config.durability_mode,
        "replication_mode": config.replication_mode,
        "seed": config.seed,
        "n_actions": len(schedule.actions),
        "ok": result.ok,
        "failure_kinds": result.failure_kinds,
        "submitted": result.submitted,
        "committed": result.committed,
        "aborted": result.aborted,
        "sim_time_us": result.sim_time_us,
        "digest": result.digest,
        "faults_applied": result.injection["applied"],
        "faults_skipped": result.injection["skipped"],
    }


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run a full campaign; see the module docstring for semantics."""
    report = CampaignReport(config=config)
    metrics = report.metrics
    for index in range(config.episodes):
        econfig = episode_config(config.master_seed, index,
                                 tiny=config.tiny,
                                 inject_bug=config.inject_bug)
        schedule = episode_schedule(econfig, tiny=config.tiny)
        result = run_episode(econfig, schedule)
        metrics.counter("chaos_episodes_total").inc()
        for kind, count in result.injection["applied"].items():
            metrics.counter("chaos_faults_injected_total",
                            kind=kind).inc(count)
        for kind, count in result.injection["skipped"].items():
            metrics.counter("chaos_faults_skipped_total",
                            kind=kind).inc(count)
        report.episodes.append(
            _episode_row(index, econfig, schedule, result))
        if result.ok:
            continue
        metrics.counter("chaos_episode_failures_total").inc()
        failure = {
            "episode": index,
            "seed": econfig.seed,
            "failure_kinds": result.failure_kinds,
            "failures": result.failures,
            "original_actions": len(schedule.actions),
        }
        # Re-run under full tracing: the failing episode's span tree
        # is the artifact a human debugs from.
        traced = run_episode(econfig, schedule, full_trace=True)
        trace_name = (f"chaos-{config.master_seed}-"
                      f"episode-{index:04d}.trace.json")
        if traced.trace_json is not None:
            report.traces.append((trace_name, traced.trace_json))
            failure["trace"] = trace_name
        if config.shrink and len(report.repros) < config.max_repros:
            target_kinds = set(result.failure_kinds)

            def reproduces(candidate: FaultSchedule) -> bool:
                rerun = run_episode(econfig, candidate)
                metrics.counter("chaos_shrink_episodes_total").inc()
                return target_kinds <= set(rerun.failure_kinds)

            shrunk = shrink_schedule(
                schedule, reproduces,
                max_episodes=config.shrink_budget,
                snap_gap_us=econfig.txn_gap_us)
            name = (f"{econfig.inject_bug or 'found'}-"
                    f"{config.master_seed}-{index:04d}")
            repro = make_repro(name, econfig, shrunk.schedule,
                               result.failure_kinds)
            report.repros.append(repro)
            metrics.counter("chaos_repro_files_total").inc()
            failure["shrunk_actions"] = len(shrunk.schedule.actions)
            failure["shrink_episodes"] = shrunk.episodes_run
            failure["shrink_minimal"] = shrunk.minimal
            failure["repro"] = f"{name}.json"
        report.failures.append(failure)
    return report
