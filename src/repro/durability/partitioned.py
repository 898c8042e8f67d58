"""Parallel partitioned recovery (SiloR-style), priced in virtual time.

:func:`recover_partitioned` rebuilds a database the way a real
multi-core restart would: the redo tail is split into *per-reactor log
partitions* (entries grouped by owning reactor, each partition sorted
by commit TID), every partition — checkpoint rows first, then tail
entries — is assigned to the executor that will own the reactor in the
*target* deployment, and all executors replay their partitions
concurrently on the simulation scheduler.  Each partition charges

``rows * recovery_load_per_row + entries * recovery_replay_per_entry``

of virtual CPU to its executor, so recovery time is the *makespan* of
the partition assignment — measurable, and visibly shorter than the
serial sum on multi-executor deployments.  Correctness does not depend
on the assignment: reactors own disjoint key spaces, so per-reactor
TID order is the only ordering replay needs (the same argument that
lets SiloR value-log partitions replay in any inter-partition order).

A reactor whose history spans containers (it migrated mid-run) is
still one partition: its entries are collected from *every* log and
merge-sorted by TID, which is exactly the watermark contract online
migration maintains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from typing import TYPE_CHECKING

from repro.durability.checkpoint import Checkpoint, CheckpointManifest
from repro.durability.recovery import CrashImage
from repro.durability.wal import (
    RedoEntry,
    RedoLog,
    apply_entry_to,
    unseal,
)

if TYPE_CHECKING:  # runtime import deferred (see recovery.py)
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import DeploymentConfig


@dataclass
class RecoveryReport:
    """The outcome of one partitioned recovery run."""

    database: ReactorDatabase
    #: Virtual-time makespan of the recovery (checkpoint load + tail
    #: replay across all partitions).
    recovery_us: float
    partitions: int
    rows_loaded: int
    entries_replayed: int
    parallel: bool
    #: executor core id -> virtual CPU charged for recovery work.
    per_executor_us: dict[int, float] = field(default_factory=dict)


def recover_partitioned(
        deployment: DeploymentConfig,
        declarations: Sequence[tuple[str, Any]],
        checkpoint: Checkpoint | CheckpointManifest,
        logs: Iterable[RedoLog],
        parallel: bool = True) -> RecoveryReport:
    """Rebuild a database from checkpoint + logs with per-reactor
    partitions replayed concurrently (or serially on one executor when
    ``parallel=False`` — the ablation baseline)."""
    from repro.core.database import ReactorDatabase

    if isinstance(checkpoint, CheckpointManifest):
        checkpoint = checkpoint.materialize()
    database = ReactorDatabase(deployment, declarations)
    scheduler = database.scheduler
    costs = database.costs
    started_at = scheduler.now

    # Partition the checkpoint image and the redo tail by reactor.
    loads: dict[str, dict[str, list[dict[str, Any]]]] = {
        name: tables for name, tables in checkpoint.reactors.items()
    }
    tails: dict[str, list[tuple[int, RedoEntry]]] = {}
    for log in logs:
        watermark = checkpoint.tid_watermarks.get(log.container_id, 0)
        for record in map(unseal, log.records):
            if record.commit_tid <= watermark:
                continue
            for entry in record.entries:
                tails.setdefault(entry.reactor, []).append(
                    (record.commit_tid, entry))
    for partition in tails.values():
        # Stable sort: intra-record entry order survives TID ties.
        partition.sort(key=lambda pair: pair[0])

    names = sorted(set(loads) | set(tails))
    counters = {"rows": 0, "entries": 0, "max_tid": 0}
    busy: dict[int, float] = {}

    def replay_partition(name: str) -> None:
        reactor = database.reactor(name)
        for table_name, rows in loads.get(name, {}).items():
            table = reactor.table(table_name)
            for row in rows:
                table.load_row(row)
            counters["rows"] += len(rows)
        for tid, entry in tails.get(name, ()):
            apply_entry_to(reactor.table(entry.table), entry, tid)
            counters["entries"] += 1
            if tid > counters["max_tid"]:
                counters["max_tid"] = tid

    # Assign partitions to their owning executor in the *target*
    # deployment and chain each executor's partitions as priced
    # scheduler events; executors proceed concurrently.
    frontier: dict[int, float] = {}
    for name in names:
        reactor = database.reactor(name)
        executor = (reactor.affinity_executor if parallel
                    else database.executors[0])
        rows = sum(len(r) for r in loads.get(name, {}).values())
        entries = len(tails.get(name, ()))
        cost = (rows * costs.recovery_load_per_row
                + entries * costs.recovery_replay_per_entry)
        # core_id is globally unique (executor_id is per-container).
        done_at = frontier.get(executor.core_id, started_at) + cost
        frontier[executor.core_id] = done_at
        executor.busy_time += cost
        busy[executor.core_id] = busy.get(executor.core_id, 0.0) + cost
        scheduler.at(done_at, replay_partition, name)
    scheduler.run()

    _finish_recovery(database, checkpoint, counters["max_tid"])
    return RecoveryReport(
        database=database,
        recovery_us=scheduler.now - started_at,
        partitions=len(names),
        rows_loaded=counters["rows"],
        entries_replayed=counters["entries"],
        parallel=parallel,
        per_executor_us=busy,
    )


def _finish_recovery(database: ReactorDatabase, checkpoint: Checkpoint,
                     max_tid: int) -> None:
    """Recovery epilogue: TID watermarks and replica seeding."""
    # Restore TID watermarks so post-recovery commits continue above
    # everything replayed.
    for container in database.containers:
        watermark = max(
            checkpoint.tid_watermarks.get(container.container_id, 0),
            max_tid)
        container.concurrency.tids.advance_to(watermark)

    # A replication-enabled target deployment: seed the replicas with
    # the recovered state (checkpoint restore and replay wrote primary
    # tables directly, bypassing the bulk-load mirror).  The recovered
    # image is the replicas' new base; subsequent commits ship on top.
    if database.replication is not None:
        for name in database.reactor_names():
            reactor = database.reactor(name)
            for table in reactor.catalog:
                table_rows = table.rows()
                if table_rows:
                    database.replication.on_bulk_load(
                        name, table.name, table_rows)


def recover_image_partitioned(
        deployment: DeploymentConfig,
        declarations: Sequence[tuple[str, Any]],
        image: CrashImage,
        parallel: bool = True) -> RecoveryReport:
    """Partitioned recovery straight from a crash image."""
    return recover_partitioned(deployment, declarations,
                               image.manifest, image.to_logs(),
                               parallel=parallel)
