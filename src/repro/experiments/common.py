"""Shared setup helpers for the paper's experiments.

Builders here encode the deployments of Section 4.1.3: the Smallbank
latency rig (seven shared-nothing containers of contiguous customer
ranges on the Xeon profile) and the TPC-C rig (one executor per
warehouse on the Opteron profile, under any of the three architecture
strategies).  The builders return a loaded
:class:`~repro.core.database.ReactorDatabase`, which is what
:mod:`repro.bench.harness` drives.
"""

from __future__ import annotations

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
    n_customers = customers_per_container * n_containers
    deployment = shared_nothing(
        n_containers, machine=machine,
        placement=RangePlacement(customers_per_container))
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
