"""Shared setup helpers for the paper's experiments.

Builders here encode the deployments of Section 4.1.3: the Smallbank
latency rig (seven shared-nothing containers of contiguous customer
ranges on the Xeon profile) and the TPC-C rig (one executor per
warehouse on the Opteron profile, under any of the three architecture
strategies).  The builders return a loaded
:class:`~repro.core.database.ReactorDatabase`, which is what
:mod:`repro.bench.harness` drives.

Run rows share :func:`summary_payload` and :func:`cc_config`, and
:func:`check_quick_tps` is the ablations' throughput gate.
"""

from __future__ import annotations

from typing import Any

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    DeploymentConfig,
    RangePlacement,
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.durability.config import DurabilityConfig
from repro.replication import ReplicationConfig
from repro.sim.machine import OPTERON_6274, XEON_E3_1276, MachineProfile
from repro.workloads import smallbank
from repro.workloads import tpcc

SMALLBANK_CONTAINERS = 7

#: The three deployment strategies by their paper names.
STRATEGIES = (
    "shared-everything-without-affinity",
    "shared-everything-with-affinity",
    "shared-nothing-async",
    "shared-nothing-sync",
)


def smallbank_database(customers_per_container: int = 200,
                       n_containers: int = SMALLBANK_CONTAINERS,
                       machine: MachineProfile = XEON_E3_1276,
                       ) -> ReactorDatabase:
    """The Section 4.2 rig: 7 shared-nothing containers, 1 executor
    each, contiguous customer ranges, Xeon profile."""
    deployment = shared_nothing(
        n_containers, machine=machine,
        placement=RangePlacement(customers_per_container))
    return loaded_smallbank(deployment,
                            customers_per_container * n_containers)


def loaded_smallbank(deployment: DeploymentConfig,
                     n_customers: int) -> ReactorDatabase:
    """A database on ``deployment`` with ``n_customers`` SmallBank
    customers loaded."""
    database = ReactorDatabase(deployment,
                               smallbank.declarations(n_customers))
    smallbank.load(database, n_customers)
    return database


def smallbank_destination(container: int, slot: int,
                          customers_per_container: int = 200) -> str:
    """The ``slot``-th customer hosted on ``container``.

    Slot 0 on container 0 is the conventional source account; callers
    pick destination slots >= 1 to avoid self-transfers.
    """
    return smallbank.reactor_name(
        container * customers_per_container + slot)


def spread_destinations(size: int, customers_per_container: int = 200,
                        n_containers: int = SMALLBANK_CONTAINERS,
                        start_container: int = 0) -> list[str]:
    """Destination accounts, one container each, cycling (Figure 5):
    destination ``i`` lands on container ``(start + i) mod n``."""
    return [
        smallbank_destination((start_container + i) % n_containers,
                              1 + i // n_containers,
                              customers_per_container)
        for i in range(size)
    ]


def tpcc_deployment(strategy: str, n_executors: int,
                    machine: MachineProfile = OPTERON_6274,
                    mpl: int = 4,
                    cc_scheme: str = "occ",
                    replication: ReplicationConfig | None = None,
                    durability: DurabilityConfig | None = None,
                    backend: str = "sim"
                    ) -> DeploymentConfig:
    """A TPC-C deployment per paper strategy name.

    ``shared-nothing-sync`` and ``shared-nothing-async`` share the same
    deployment — they differ only in the program formulation (the
    ``sync_remote`` knob of the workload).  ``cc_scheme`` selects the
    concurrency-control protocol ("occ", "2pl_nowait", "2pl_waitdie",
    "none").  ``replication`` adds log-shipping replicas per container
    (see :mod:`repro.replication`).
    """
    if strategy == "shared-everything-without-affinity":
        return shared_everything_without_affinity(
            n_executors, machine=machine, cc_scheme=cc_scheme,
            replication=replication, durability=durability,
            backend=backend)
    if strategy == "shared-everything-with-affinity":
        return shared_everything_with_affinity(
            n_executors, machine=machine, cc_scheme=cc_scheme,
            replication=replication, durability=durability,
            backend=backend)
    if strategy in ("shared-nothing-async", "shared-nothing-sync",
                    "shared-nothing"):
        return shared_nothing(n_executors, machine=machine, mpl=mpl,
                              cc_scheme=cc_scheme,
                              replication=replication,
                              durability=durability, backend=backend)
    raise ValueError(f"unknown strategy {strategy!r}")


def tpcc_database(strategy: str, n_warehouses: int,
                  scale: tpcc.TpccScale | None = None,
                  machine: MachineProfile = OPTERON_6274,
                  mpl: int = 4, n_executors: int | None = None,
                  cc_scheme: str = "occ",
                  replication: ReplicationConfig | None = None,
                  durability: DurabilityConfig | None = None,
                  backend: str = "sim"
                  ) -> ReactorDatabase:
    """Build and load a TPC-C database under one strategy.

    ``n_executors`` defaults to ``n_warehouses`` (the paper configures
    one transaction executor per warehouse)."""
    deployment = tpcc_deployment(
        strategy, n_executors or n_warehouses, machine=machine,
        mpl=mpl, cc_scheme=cc_scheme, replication=replication,
        durability=durability, backend=backend)
    database = ReactorDatabase(deployment,
                               tpcc.declarations(n_warehouses))
    tpcc.load(database, n_warehouses, scale)
    return database


def summary_payload(summary) -> dict[str, Any]:
    """The machine-readable core of one RunSummary (throughput,
    aborts, latency percentiles)."""
    return {
        "committed": summary.committed,
        "aborted": summary.aborted,
        "abort_rate": round(summary.abort_rate, 6),
        "throughput_tps": round(summary.throughput_tps, 3),
        "throughput_std": round(summary.throughput_std, 3),
        "latency_us": round(summary.latency_us, 3),
        "p50_us": round(summary.p50_us, 3),
        "p99_us": round(summary.p99_us, 3),
    }


def cc_config(label: str) -> dict[str, Any]:
    """A run row's ``scheme`` label as deployment keywords: a
    ``cc_scheme`` name, optionally suffixed ``+snapshot_reads``."""
    scheme, __, switch = label.partition("+")
    return {"cc_scheme": scheme,
            "snapshot_reads": switch == "snapshot_reads"}


#: The fields that identify an ablation run row, in key order.
ROW_AXES = ("workload", "mode", "scheme", "skew", "placement",
            "read_from_replicas", "flush_interval_us")
#: A gated row may lose this share of its ``QUICK_TPS`` throughput.
TPS_TOLERANCE = 0.20


def row_key(run: dict) -> str:
    """A run row's identity: its configuration axes, e.g.
    ``"workload=smallbank mode=sync skew=0.0"``."""
    return " ".join(f"{axis}={run[axis]}" for axis in ROW_AXES
                    if axis in run)


def check_quick_tps(payload: dict, quick: dict,
                    quick_tps: dict[str, float]) -> None:
    """At ``quick``, every ``quick_tps`` row must be in
    ``payload["runs"]`` and keep its ``throughput_tps`` within
    :data:`TPS_TOLERANCE` of the pin; other rows, and payloads run at
    other parameters, are free.  The simulation is deterministic, so
    unchanged code matches the pins exactly."""
    if payload["params"] != quick:
        return
    measured = {row_key(run): run["throughput_tps"]
                for run in payload["runs"]}
    failures = []
    for key, pinned in quick_tps.items():
        now = measured.get(key)
        if now is None:
            failures.append(f"gated run row missing: {key!r}")
        elif pinned > 0 and now < pinned * (1 - TPS_TOLERANCE):
            failures.append(
                f"{key!r}: {now},  # fell more than "
                f"{TPS_TOLERANCE:.0%} from {pinned}")
    assert not failures, (
        "throughput gate (after a deliberate re-pricing, pin the new "
        "values in QUICK_TPS):\n" + "\n".join(failures))
