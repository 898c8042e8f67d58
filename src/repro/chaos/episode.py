"""One chaos episode: build, load, inject, run, certify.

An episode is a deterministic function ``(EpisodeConfig, FaultSchedule)
→ EpisodeResult``: a fresh database is built from the config, a sliced
workload (SmallBank / YCSB / TPC-C) is scheduled open-loop at fixed
virtual-time points, the fault schedule is armed on the same scheduler,
the simulation runs to quiescence, and the episode is judged by

* **liveness** — every submitted root reported an outcome (commit or
  a reported abort; a root that silently vanished is a bug), and
* **every applicable certificate** from :mod:`repro.formal.audit`,
  via :func:`~repro.formal.audit.certify_all` (serializability and
  snapshot isolation from an episode-scoped recorder, replication,
  migration, plus the crash-recovery reports ``crash_image`` faults
  produced mid-run).

Everything an episode observes — outcome counts, injection record,
certificate verdicts, a state digest — lands in the result dict, and
two runs of the same ``(config, schedule)`` produce byte-identical
dicts.  ``inject_bug`` enables one of the deliberate ``chaos_*`` bug
toggles the runtime hooks expose (see :mod:`repro.chaos.campaign`),
which is how the pipeline itself is tested: a bug must be caught,
shrunk, and replayed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.chaos.injection import FaultInjector
from repro.chaos.schedule import FaultSchedule, ScheduleSpec
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.durability.config import DurabilityConfig
from repro.formal.audit import certify_all, recording
from repro.replication.config import ReplicationConfig
from repro.sim.rng import RngFactory
from repro.telemetry.config import TelemetryConfig, full_tracing
from repro.workloads import smallbank as sb
from repro.workloads import ycsb
from repro.workloads.tpcc import loader as tpcc_loader
from repro.workloads.tpcc.schema import TpccScale
from repro.workloads.tpcc.workload import TpccWorkload

EPISODE_SCHEMA = "chaos-episode-v1"

WORKLOADS = ("smallbank", "ycsb", "tpcc")

#: The deliberate bug toggles an episode can arm (name → what breaks).
BUG_TOGGLES = ("ack_before_flush", "drop_shipped_record",
               "drop_parked_roots")


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything that determines an episode besides its schedule."""

    workload: str = "smallbank"
    cc_scheme: str = "occ"
    durability_mode: str = "none"       # none | sync | group | async
    replication_mode: str = "none"      # none | sync | async
    replicas: int = 0
    read_from_replicas: bool = False
    snapshot_reads: bool = False
    n_containers: int = 2
    n_txns: int = 40
    txn_gap_us: float = 25.0
    scale: int = 1
    seed: int = 1
    inject_bug: str | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.inject_bug is not None and \
                self.inject_bug not in BUG_TOGGLES:
            raise ValueError(f"unknown bug toggle {self.inject_bug!r}")

    # -- derived -------------------------------------------------------

    @property
    def horizon_us(self) -> float:
        return self.n_txns * self.txn_gap_us

    def schedule_spec(self, min_actions: int = 2,
                      max_actions: int = 5) -> ScheduleSpec:
        return ScheduleSpec(
            n_containers=self.n_containers,
            horizon_us=self.horizon_us,
            replication=self.replication_mode != "none",
            durability=(self.durability_mode != "none"
                        or self.replication_mode != "none"),
            min_actions=min_actions,
            max_actions=max_actions,
        )

    def without_bug(self) -> "EpisodeConfig":
        return replace(self, inject_bug=None)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "cc_scheme": self.cc_scheme,
            "durability_mode": self.durability_mode,
            "replication_mode": self.replication_mode,
            "replicas": self.replicas,
            "read_from_replicas": self.read_from_replicas,
            "snapshot_reads": self.snapshot_reads,
            "n_containers": self.n_containers,
            "n_txns": self.n_txns,
            "txn_gap_us": self.txn_gap_us,
            "scale": self.scale,
            "seed": self.seed,
            "inject_bug": self.inject_bug,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "EpisodeConfig":
        return EpisodeConfig(**data)


@dataclass
class EpisodeResult:
    """The full deterministic record of one episode."""

    ok: bool
    failures: list[dict[str, Any]]
    submitted: int
    committed: int
    aborted: int
    sim_time_us: float
    digest: str
    injection: dict[str, Any]
    certificates: dict[str, Any]
    trace_json: str | None = field(default=None, repr=False)

    @property
    def failure_kinds(self) -> list[str]:
        return sorted({f["kind"] for f in self.failures})

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": EPISODE_SCHEMA,
            "ok": self.ok,
            "failures": self.failures,
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "sim_time_us": self.sim_time_us,
            "digest": self.digest,
            "injection": self.injection,
            "certificates": self.certificates,
        }


# ----------------------------------------------------------------------
# Deployment / workload assembly
# ----------------------------------------------------------------------

def _build_deployment(config: EpisodeConfig, full_trace: bool):
    replication = None
    if config.replication_mode != "none":
        replication = ReplicationConfig(
            replicas_per_container=max(1, config.replicas),
            mode=config.replication_mode,
            read_from_replicas=config.read_from_replicas,
        )
    durability = None
    if config.durability_mode != "none":
        durability = DurabilityConfig(enabled=True,
                                      mode=config.durability_mode)
    deployment = shared_nothing(
        config.n_containers,
        cc_scheme=config.cc_scheme,
        snapshot_reads=config.snapshot_reads,
        replication=replication,
        durability=durability,
    )
    # Pin telemetry explicitly: episode results must not depend on the
    # REPRO_* environment the process happens to run under.
    deployment.telemetry = full_tracing() if full_trace else \
        TelemetryConfig(trace_sample=0, trace_system=False)
    return deployment


class _Worker:
    """The minimal worker shim the workload generators consume."""

    __slots__ = ("rng", "issued")

    def __init__(self, rng) -> None:
        self.rng = rng
        self.issued = 0


def _workload_plan(config: EpisodeConfig):
    """Declarations, a loader, and the deterministic list of
    transaction specs an episode submits."""
    rngs = RngFactory(config.seed)
    if config.workload == "smallbank":
        n_customers = 8 * config.scale
        declarations = sb.declarations(n_customers)
        workload = sb.SmallbankWorkload(n_customers,
                                        hotspot_fraction=0.25)
        worker = _Worker(rngs.stream("chaos/driver"))

        def load(database: ReactorDatabase) -> None:
            sb.load(database, n_customers)

        def spec_at(index: int):
            worker.issued += 1
            return workload.next_txn(worker)

    elif config.workload == "ycsb":
        n_keys = 16 * config.scale
        declarations = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
                        for i in range(n_keys)]
        workload = ycsb.YcsbWorkload(
            scale_factor=1, theta=0.6,
            n_containers=config.n_containers, keys_per_txn=4,
            seed=config.seed, n_keys=n_keys, read_fraction=0.25)
        worker = _Worker(rngs.stream("chaos/driver"))

        def load(database: ReactorDatabase) -> None:
            for name, __ in declarations:
                database.load(name, "kv",
                              [{"key": name, "value": "v"}])

        def spec_at(index: int):
            spec = workload.next_txn(worker)
            worker.issued += 1
            return spec

    else:  # tpcc
        n_warehouses = config.n_containers
        scale = TpccScale(districts=2, customers_per_district=8,
                          items=24, orders_per_district=4,
                          last_names=5)
        declarations = tpcc_loader.declarations(n_warehouses)
        workload = TpccWorkload(n_warehouses=n_warehouses, scale=scale,
                                seed=config.seed)
        factories = [workload.factory_for(w)
                     for w in range(n_warehouses)]
        workers = [_Worker(rngs.stream(f"chaos/driver/{w}"))
                   for w in range(n_warehouses)]

        def load(database: ReactorDatabase) -> None:
            tpcc_loader.load(database, n_warehouses, scale,
                             seed=config.seed)

        def spec_at(index: int):
            w = index % n_warehouses
            workers[w].issued += 1
            return factories[w](workers[w])

    return declarations, load, spec_at


def _arm_bug(database: ReactorDatabase, bug: str | None) -> None:
    if bug is None:
        return
    if bug == "ack_before_flush" and database.durability is not None:
        database.durability.chaos_ack_bypass = True
    elif bug == "drop_shipped_record" and \
            database.replication is not None:
        database.replication.chaos_drop_ship = True
    elif bug == "drop_parked_roots":
        database.migration.chaos_drop_parked = True


def _state_digest(database: ReactorDatabase) -> str:
    """A stable fingerprint of every live table (reproducibility
    checks compare digests instead of full dumps)."""
    payload: list[Any] = []
    for name in sorted(database.reactor_names()):
        reactor = database.reactor(name)
        for table in reactor.catalog:
            rows = sorted(
                (sorted(row.items()) for row in table.rows()),
                key=repr)
            payload.append((name, table.name, rows))
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# The episode runner
# ----------------------------------------------------------------------

def run_episode(config: EpisodeConfig, schedule: FaultSchedule,
                full_trace: bool = False) -> EpisodeResult:
    """Run one episode to quiescence and certify it."""
    declarations, load, spec_at = _workload_plan(config)
    deployment = _build_deployment(config, full_trace)
    database = ReactorDatabase(deployment, declarations)
    _arm_bug(database, config.inject_bug)
    load(database)

    outcomes = {"submitted": 0, "completed": 0, "committed": 0,
                "aborted": 0}

    def on_done(root, committed, reason, result) -> None:
        outcomes["completed"] += 1
        outcomes["committed" if committed else "aborted"] += 1

    def submit(spec) -> None:
        reactor, proc, args = spec
        outcomes["submitted"] += 1
        database.submit(reactor, proc, *args, on_done=on_done)

    injector = FaultInjector(database, declarations)
    with recording(database) as recorder:
        for index in range(config.n_txns):
            database.scheduler.at((index + 1) * config.txn_gap_us,
                                  submit, spec_at(index))
        injector.arm(schedule)
        database.scheduler.run()
        certificates = certify_all(
            database, recorder=recorder,
            crash_reports=[entry["report"]
                           for entry in injector.crash_reports])

    failures: list[dict[str, Any]] = list(certificates["failures"])
    if outcomes["completed"] != outcomes["submitted"]:
        failures.append({
            "kind": "liveness",
            "detail": (f"{outcomes['submitted']} roots submitted, "
                       f"{outcomes['completed']} reported an outcome"),
        })

    trace_json = None
    if full_trace:
        trace_json = database.telemetry.export_chrome_json()

    return EpisodeResult(
        ok=not failures,
        failures=failures,
        submitted=outcomes["submitted"],
        committed=outcomes["committed"],
        aborted=outcomes["aborted"],
        sim_time_us=round(database.scheduler.now, 3),
        digest=_state_digest(database),
        injection=injector.summary(),
        certificates=certificates,
        trace_json=trace_json,
    )
