"""Crash recovery: group commit, incremental checkpoints, replay.

The :class:`DurabilityManager` owns one database's durability state:

* the per-container redo logs (as before), plus the per-container
  :class:`~repro.durability.group_commit.LogFlusher` pipelines that
  decide *when* an appended record is actually durable — sync
  force-at-commit, epoch-based group commit, or background (async)
  flushing, per the deployment's ``durability_mode``;
* the full append sequence per container (``installed``), which
  survives checkpoint log truncation and is the reference order
  :func:`repro.formal.audit.certify_crash_recovery` certifies crash
  images against — filled by :meth:`DurabilityManager.publish`, which
  the executor calls once per commit after every participant
  installed, with the records the commit appended;
* *incremental checkpoints*, whose dirty keys are derived from the
  append sequence recorded since the previous segment (plus explicit
  bulk-load notes), so a commit books nothing for them: a chained
  :class:`~repro.durability.checkpoint.CheckpointManifest` whose
  segments carry only the keys written since the previous segment, and
  whose WAL-truncation watermark respects pinned MVCC snapshots,
  replica apply positions, and in-flight/just-completed migrations;
* :meth:`crash` — the kill-at-arbitrary-epoch primitive: an
  epoch-consistent :class:`CrashImage` of what would survive on disk
  (the flushed prefix of each log, with cross-container torn commits
  dropped so a transaction is recovered either everywhere or
  nowhere).

Recovery rebuilds a fresh database (same reactor declarations, any
deployment — architecture virtualization extends to recovery) from a
checkpoint manifest, then replays redo records with commit TIDs above
the checkpoint watermark in per-reactor TID order.  Replay is
idempotent on after-images, so replaying from an older checkpoint with
a longer log yields the same state.  There is one recovery call,
:func:`recover`, and it replays the way a real multi-core restart
would (SiloR-style): the redo tail is split into *per-reactor log
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

Replay goes through the regular ``install_*`` paths of the recovered
database's tables, i.e. through the multi-version storage engine: the
rebuilt records carry their replayed commit TIDs, so post-recovery
snapshot readers (``snapshot_reads`` deployments) pin and
resolve against the recovered state exactly as against an original
one, and new version chains grow from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.durability.checkpoint import (
    INCREMENTAL,
    CheckpointManifest,
    CheckpointSegment,
    last_tids,
    require_quiescence,
    take_checkpoint,
)
from repro.durability.config import ASYNC, DURABILITY_MODES
from repro.durability.group_commit import LogFlusher
from repro.durability.wal import (
    RedoEntry,
    RedoLog,
    RedoRecord,
    apply_entry_to,
    unseal,
    written_keys,
)
from repro.errors import SimulationError
from repro.runtime.futures import SimFuture

if TYPE_CHECKING:  # deployment.py imports this package's config at
    # module scope, so the runtime import of core.database is deferred
    # into recover() to keep the bootstrap acyclic.
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import DeploymentConfig


@dataclass
class CrashImage:
    """What the log devices would hold after a crash right now.

    ``logs`` carry, per container, the durable (flushed) record prefix
    above the last truncation point, with *torn* cross-container
    commits removed: a distributed commit whose record flushed in one
    participant's epoch but not (yet) in another's is dropped
    everywhere, so recovery treats it as never-happened instead of
    replaying half a transaction (``torn_tids`` reports the drops —
    under ``sync``/``group`` only ever unacknowledged commits, because
    acknowledgement waits on every participant's flush; ``async``
    acknowledges before flushing, so its torn drops can include acked
    commits, which the certificate reports as part of the async loss
    window).  ``manifest`` is a deep copy of the checkpoint chain at
    crash time.  Records are sealed (:attr:`RedoRecord.sealed`), as in
    the logs they came from.
    """

    at_us: float
    mode: str
    manifest: CheckpointManifest
    logs: dict[int, list[bytes]]
    flushed_counts: dict[int, int] = field(default_factory=dict)
    truncated_through: dict[int, int] = field(default_factory=dict)
    #: Commit sites — ``(container id, append position)`` pairs —
    #: of transactions acknowledged to clients before the crash.
    #: (Positions, not TIDs: TIDs are only unique per container.)
    acked_sites: list[tuple[int, int]] = field(default_factory=list)
    #: Sites dropped for cross-container epoch consistency.
    torn_sites: list[tuple[int, int]] = field(default_factory=list)
    #: Per-container TIDs of the dropped sites (reporting only).
    torn_tids: dict[int, list[int]] = field(default_factory=dict)

    def to_logs(self) -> list[RedoLog]:
        """The surviving logs as replayable :class:`RedoLog`
        instances — what a restart mounts."""
        logs = []
        for cid, records in self.logs.items():
            log = RedoLog(cid, records)
            log.truncated_through = self.truncated_through.get(cid, 0)
            logs.append(log)
        return logs


class DurabilityManager:
    """Owns the redo logs + flush pipelines of one database."""

    def __init__(self, database: Any, mode: str = ASYNC) -> None:
        if mode not in DURABILITY_MODES:
            raise SimulationError(
                f"unknown durability mode {mode!r}; expected one of "
                f"{', '.join(DURABILITY_MODES)}")
        self.database = database
        self.mode = mode
        self.logs: dict[int, RedoLog] = {}
        self.flushers: dict[int, LogFlusher] = {}
        #: container id -> full append sequence (survives truncation;
        #: the reference order crash certification replays against),
        #: sealed: the same ``bytes`` objects the log holds.
        self.installed: dict[int, list[bytes]] = {}
        #: container id -> the commit TIDs of ``installed``, position
        #: for position.
        self.installed_tids: dict[int, list[int]] = {}
        #: Acked commit sites as ``(cid, append position)`` — the
        #: collision-free identity (TIDs are per-container sequences,
        #: so the same number can name unrelated commits on two
        #: containers).
        self.acked_sites: list[tuple[int, int]] = []
        #: root txn id -> this commit's sites, captured at publish.
        self._sites: dict[int, tuple[tuple[int, int], ...]] = {}
        #: Cross-container commit groups (>= 2 sites): the units the
        #: crash image keeps atomic — durable everywhere or dropped
        #: everywhere.  Tuples, which the garbage collector stops
        #: tracking, not lists, which it tracks for good.
        self.cross_groups: list[tuple[tuple[int, int], ...]] = []
        #: The incremental-checkpoint chain.
        self.manifest = CheckpointManifest()
        self._segment_seq = 0
        #: reactor -> table -> primary keys dirtied since the last
        #: checkpoint segment: bulk-load notes, which bypass the log,
        #: and (at checkpoint time) the keys ``installed`` shows from
        #: ``_dirty_from`` on.
        self._dirty: dict[str, dict[str, set[tuple]]] = {}
        #: container id -> position in ``installed`` from which the
        #: next segment derives its dirty keys.
        self._dirty_from: dict[int, int] = {}
        registry = database.telemetry.registry
        #: Roots reported committed to clients (the executor notes
        #: them at root completion).
        self._acked = registry.counter("durability_acked_commits_total")
        self._checkpoints = registry.counter(
            "durability_checkpoints_total")
        self._truncated = registry.counter(
            "durability_records_truncated_total")
        registry.gauge_fn("durability_checkpoint_segments",
                          lambda: len(self.manifest.segments))
        #: Deliberate-bug toggle (chaos self-test only): acknowledge
        #: group/sync commits without waiting for their epoch flush —
        #: the classic ack-before-flush bug crash certification must
        #: catch as acked-commit loss.
        self.chaos_ack_bypass = False
        for container in database.containers:
            log = RedoLog(container.container_id)
            container.concurrency.redo_log = log
            self._attach_log(container.container_id, log)

    # ------------------------------------------------------------------
    # Log wiring
    # ------------------------------------------------------------------

    def _attach_log(self, container_id: int, log: RedoLog) -> None:
        self.logs[container_id] = log
        self.installed.setdefault(container_id, [])
        self.installed_tids.setdefault(container_id, [])
        self._dirty_from.setdefault(container_id, 0)
        self.flushers[container_id] = LogFlusher(
            container_id, self.database.scheduler, self.database.costs,
            self.mode, telemetry=self.database.telemetry)

    def on_log_replaced(self, container_id: int,
                        log: RedoLog) -> None:
        """A replication promotion re-anchored a container's log on
        the survivor's applied prefix: adopt it, dirty from its start
        for the next checkpoint segment.  The seeded prefix is
        durable by construction (the replica had materialized it), so
        the new flusher starts fully flushed; its ``log_*`` counters
        are the container's, and continue.  Stored commit sites on
        this container are remapped by TID into the new sequence
        (unique per container); sites the survivor never applied —
        the async lag-window loss replication's own certificate
        reports — are dropped here.
        """
        old_tids = self.installed_tids.get(container_id, [])
        self._attach_log(container_id, log)
        self.installed[container_id] = list(log.records)
        self.installed_tids[container_id] = list(log.tids)
        # The next segment reads the whole new sequence for dirty
        # keys.  What the old one wrote since the last segment and the
        # survivor never applied left the live state with it: the
        # last segment was taken quiescent, when every shipped record
        # had been applied.
        self._dirty_from[container_id] = 0
        flusher = self.flushers[container_id]
        flusher.appended_records = flusher.flushed_records = \
            len(log.records)
        flusher.durable_tid = max(log.tids, default=0)
        position_of = {tid: pos for pos, tid in enumerate(log.tids)}

        def remap(sites: Iterable[tuple[int, int]]
                  ) -> tuple[tuple[int, int], ...]:
            out = []
            for cid, pos in sites:
                if cid != container_id:
                    out.append((cid, pos))
                    continue
                tid = old_tids[pos] if pos < len(old_tids) else None
                new_pos = position_of.get(tid)
                if new_pos is not None:
                    out.append((cid, new_pos))
            return tuple(out)

        self.acked_sites = list(remap(self.acked_sites))
        self.cross_groups = [remap(group)
                             for group in self.cross_groups]
        self.cross_groups = [g for g in self.cross_groups
                             if len(g) > 1]
        self._sites = {txn: remap(sites)
                       for txn, sites in self._sites.items()}

    def _collect_dirty(self, container_id: int) -> None:
        """Fold the keys the container's append sequence wrote since
        ``_dirty_from`` into ``_dirty``, and move the mark to its
        end."""
        installed = self.installed[container_id]
        dirty = self._dirty
        for sealed in installed[self._dirty_from[container_id]:]:
            for reactor, table, pk in written_keys(sealed):
                try:
                    dirty[reactor][table].add(pk)
                except KeyError:  # first write there since the segment
                    dirty.setdefault(reactor, {}) \
                        .setdefault(table, set()).add(pk)
        self._dirty_from[container_id] = len(installed)

    def note_bulk_load(self, reactor_name: str, table_name: str,
                       pks: Iterable[tuple]) -> None:
        """Bulk loads bypass the redo log; the dirty tracker must
        still see their keys or the next incremental segment would
        miss them."""
        self._dirty.setdefault(reactor_name, {}) \
            .setdefault(table_name, set()).update(pks)

    # ------------------------------------------------------------------
    # Publishing (called from the executor's commit)
    # ------------------------------------------------------------------

    def publish(self, root: Any,
                records: Sequence[tuple[int, RedoRecord]]
                ) -> list[SimFuture]:
        """Record one installed commit and return the flush futures it
        must wait on before the client may see it — one per container
        whose epoch has not flushed yet; none under ``async``.  A
        cross-container commit is acknowledged only when *every*
        participant's epoch flushed, which keeps acked commits atomic
        across kill-at-arbitrary-epoch crashes; the executor joins
        them.

        ``records`` are the commit's ``(container id, record)`` pairs
        in participant order, handed over once every participant has
        installed.  Each joins its container's append sequence (which
        the next checkpoint segment reads its dirty keys from) and its
        flush epoch, and its position in
        that sequence is the commit's *site* there — the identity
        crash certification checks acknowledged commits by.
        """
        futures = []
        sites = []
        for cid, record in records:
            tids = self.installed_tids[cid]
            sites.append((cid, len(tids)))
            self.installed[cid].append(record.sealed)
            tids.append(record.commit_tid)
            future = self.flushers[cid].on_append(record)
            if future is not None and not future.resolved:
                futures.append(future)
        if sites:
            group = self._sites[root.txn_id] = tuple(sites)
            if len(group) > 1:
                self.cross_groups.append(group)
        if self.chaos_ack_bypass:
            # Bug toggle: report the commit durable *now*, flush
            # pending.  Site capture above already ran, so the ack is
            # recorded and a crash inside the flush window shows up as
            # ``lost_acked`` — silently skipping the capture too would
            # make the bug invisible to the certificate.
            return []
        return futures

    def note_acked(self, root: Any) -> None:
        """The executor reported this commit to the client."""
        self._acked.value += 1
        sites = self._sites.pop(root.txn_id, None)
        if sites:
            self.acked_sites.extend(sites)

    def note_unacked(self, root: Any) -> None:
        """The root completed without a commit acknowledgement
        (abort, or an in-doubt failover outcome reported as abort):
        its installed records, if any, stay unacked."""
        self._sites.pop(root.txn_id, None)

    def kick_flush(self, container_id: int) -> None:
        """Close and flush the container's open epoch now (durability
        barrier: migration state copies force the source log down
        before its state leaves the container)."""
        flusher = self.flushers.get(container_id)
        if flusher is not None:
            flusher.kick()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def incremental_checkpoint(self) -> CheckpointSegment:
        """Append a checkpoint segment to the manifest.

        The first segment snapshots everything (:func:`take_checkpoint`,
        renumbered into this chain); later segments carry only the
        keys dirtied since the previous one: those the append sequence
        wrote since then, and bulk-loaded ones.  Requires quiescence — at
        a drained scheduler every pending flush has landed, so a
        segment never persists state ahead of the log (checkpoints
        cannot resurrect unflushed commits).  Covered log prefixes are
        truncated through :meth:`safe_truncation_tid`.
        """
        database = self.database
        require_quiescence(database)
        self._segment_seq += 1
        if self.manifest.empty:
            segment = take_checkpoint(database).segments[0]
            segment.seq = self._segment_seq
        else:
            parent = self.manifest.segments[-1]
            segment = CheckpointSegment(
                seq=self._segment_seq, kind=INCREMENTAL,
                parent_seq=parent.seq,
                taken_at_us=database.scheduler.now,
                tid_watermarks=last_tids(database))
            for container_id in self.installed:
                self._collect_dirty(container_id)
            for reactor_name, tables in sorted(self._dirty.items()):
                reactor = database.reactor(reactor_name)
                for table_name, pks in sorted(tables.items()):
                    table = reactor.table(table_name)
                    rows: list[dict[str, Any]] = []
                    deleted: list[list[Any]] = []
                    for pk in sorted(pks, key=repr):
                        record = table.get_record(pk)
                        if record is None:
                            deleted.append(list(pk))
                        else:
                            rows.append({**record.snapshot(),
                                         "__pk": list(pk)})
                    if rows:
                        segment.rows.setdefault(
                            reactor_name, {})[table_name] = rows
                    if deleted:
                        segment.deleted.setdefault(
                            reactor_name, {})[table_name] = deleted
        self.manifest.segments.append(segment)
        self._dirty = {}
        for container_id, installed in self.installed.items():
            self._dirty_from[container_id] = len(installed)
        for container_id, log in self.logs.items():
            safe = self.safe_truncation_tid(
                container_id,
                segment.tid_watermarks.get(container_id, 0))
            segment.truncate_tids[container_id] = safe
            self._truncated.value += log.truncate_through(safe)
        self._checkpoints.value += 1
        return segment

    def safe_truncation_tid(self, container_id: int,
                            checkpoint_tid: int) -> int:
        """How far this container's WAL may be truncated.

        Floored below the checkpoint watermark by (1) pinned MVCC
        snapshots — the black-box snapshot-isolation audit checks
        observed reads against logged history at or above the pin;
        (2) replica apply positions — a lagging replica's unapplied
        suffix stays replayable; (3) migration watermarks — an active
        migration's certificate replays the destination log above its
        watermark, and the last completed migration per reactor keeps
        its anchors until superseded.
        """
        tid = checkpoint_tid
        database = self.database
        storage = database.storage
        if storage.pinned:
            # Keep the record *at* the pin too: a stale read at the
            # snapshot is only caught if the write with commit TID in
            # (observed, snapshot] is still logged.  (At quiescence
            # in-flight roots have unpinned — this floor covers pins
            # held through the checkpoint by external consumers.)
            tid = min(tid, min(pin_tid for pin_tid, __
                               in storage.pinned.values()) - 1)
        replication = database.replication
        if replication is not None:
            for replica in replication.replicas.get(container_id, []):
                tid = min(tid, replica.applied_tid)
        migration = database.migration
        for event in migration.active.values():
            if container_id in (event.src_cid, event.dst_cid):
                tid = min(tid, event.watermark)
        for event in migration._last_completed.values():
            if event.dst_cid == container_id:
                tid = min(tid, event.watermark)
        return tid

    # ------------------------------------------------------------------
    # Crash
    # ------------------------------------------------------------------

    def crash(self) -> CrashImage:
        """Snapshot what would survive a crash at this instant.

        Callable at *any* virtual time — mid-epoch, with flushes in
        flight — unlike checkpoints, which require quiescence.  The
        image holds each container's flushed record prefix (above its
        truncation point) with torn cross-container commits dropped,
        a deep copy of the checkpoint manifest, and the set of commits
        clients saw acknowledged.
        """
        flushed = {cid: flusher.flushed_records
                   for cid, flusher in self.flushers.items()}
        # Cross-container epoch consistency: a distributed commit
        # whose record flushed on some participants but not all is
        # dropped from the durable image everywhere.  Acked commits
        # are never affected — acknowledgement waited on every
        # participant's flush.
        torn_sites: list[tuple[int, int]] = []
        for group in self.cross_groups:
            durable_members = [(cid, pos) for cid, pos in group
                               if pos < flushed.get(cid, 0)]
            if durable_members and \
                    len(durable_members) < len(group):
                torn_sites.extend(durable_members)
        torn_by_cid: dict[int, set[int]] = {}
        torn_tids: dict[int, list[int]] = {}
        for cid, pos in torn_sites:
            torn_by_cid.setdefault(cid, set()).add(pos)
            torn_tids.setdefault(cid, []).append(
                self.installed_tids[cid][pos])
        durable: dict[int, list[bytes]] = {}
        for cid, log in self.logs.items():
            dropped = torn_by_cid.get(cid, ())
            tids = self.installed_tids[cid]
            durable[cid] = [
                sealed for pos, sealed in enumerate(
                    self.installed[cid][:flushed.get(cid, 0)])
                if tids[pos] > log.truncated_through
                and pos not in dropped
            ]
        return CrashImage(
            at_us=self.database.scheduler.now,
            mode=self.mode,
            manifest=CheckpointManifest.from_json(
                self.manifest.to_json()),
            logs=durable,
            flushed_counts=flushed,
            truncated_through={cid: log.truncated_through
                               for cid, log in self.logs.items()},
            acked_sites=list(self.acked_sites),
            torn_sites=torn_sites,
            torn_tids=torn_tids,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def log_records(self):
        """Every record the logs hold, unsealed."""
        for log in self.logs.values():
            yield from map(unseal, log.records)

    def stats_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "acked_commits": self._acked.value,
            "checkpoints_taken": self._checkpoints.value,
            "checkpoint_segments": len(self.manifest.segments),
            "records_truncated": self._truncated.value,
            "flushers": {cid: flusher.stats_dict()
                         for cid, flusher in
                         sorted(self.flushers.items())},
        }


def enable_durability(database: Any,
                      mode: str | None = None) -> DurabilityManager:
    """Attach redo logging to a database (idempotent per database).

    ``mode`` selects the commit-acknowledgement discipline (``sync`` /
    ``group`` / ``async``); omitted, it defaults to ``async`` — pure
    background flushing, which acknowledges commits immediately and
    therefore preserves the timing of the original logging-only
    behaviour (replication and migration enable durability implicitly
    through this default).  A second call returns the existing manager
    instead of replacing the containers' logs — an application calling
    :func:`enable_durability` after replication attached must not
    detach the logs the replication manager is shipping from.
    """
    if database.durability is not None:
        return database.durability
    manager = DurabilityManager(database, mode=mode or ASYNC)
    database.durability = manager
    return manager


@dataclass
class RecoveryReport:
    """The outcome of one recovery run."""

    database: ReactorDatabase
    #: Virtual-time makespan of the recovery (checkpoint load + tail
    #: replay across all partitions).
    recovery_us: float
    partitions: int
    rows_loaded: int
    entries_replayed: int
    #: executor core id -> virtual CPU charged for recovery work.
    per_executor_us: dict[int, float] = field(default_factory=dict)


def recover(deployment: DeploymentConfig,
            declarations: Sequence[tuple[str, Any]],
            manifest: CheckpointManifest,
            logs: Iterable[RedoLog],
            parallel: bool = True) -> RecoveryReport:
    """Rebuild a database from a checkpoint manifest plus redo logs.

    The recovered database (``.database`` of the report) may use a
    *different* deployment than the crashed one — reactor state is
    logical, architecture is physical.  Per-reactor partitions replay
    concurrently on their owning executors, or serially on one
    executor when ``parallel=False`` (the ablation baseline).  From a
    :class:`CrashImage`, pass ``image.manifest, image.to_logs()``.
    """
    from repro.core.database import ReactorDatabase

    image = manifest.materialize()
    watermarks = manifest.tid_watermarks()
    database = ReactorDatabase(deployment, declarations)
    scheduler = database.scheduler
    costs = database.costs
    started_at = scheduler.now

    # Partition the redo tail by reactor (the checkpoint image already
    # is).
    tails: dict[str, list[tuple[int, RedoEntry]]] = {}
    for log in logs:
        watermark = watermarks.get(log.container_id, 0)
        for record in map(unseal, log.records):
            if record.commit_tid <= watermark:
                continue
            for entry in record.entries:
                tails.setdefault(entry.reactor, []).append(
                    (record.commit_tid, entry))
    for partition in tails.values():
        # Stable sort: intra-record entry order survives TID ties.
        partition.sort(key=lambda pair: pair[0])

    names = sorted(set(image) | set(tails))
    counters = {"rows": 0, "entries": 0, "max_tid": 0}
    busy: dict[int, float] = {}

    def replay_partition(name: str) -> None:
        reactor = database.reactor(name)
        for table_name, rows in image.get(name, {}).items():
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
        rows = sum(len(r) for r in image.get(name, {}).values())
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

    _finish_recovery(database, watermarks, counters["max_tid"])
    return RecoveryReport(
        database=database,
        recovery_us=scheduler.now - started_at,
        partitions=len(names),
        rows_loaded=counters["rows"],
        entries_replayed=counters["entries"],
        per_executor_us=busy,
    )


def _finish_recovery(database: ReactorDatabase,
                     watermarks: dict[int, int], max_tid: int) -> None:
    """Recovery epilogue: TID watermarks and replica seeding."""
    # Restore TID watermarks so post-recovery commits continue above
    # everything replayed.
    for container in database.containers:
        watermark = max(watermarks.get(container.container_id, 0),
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
