"""The replication manager: log shipping, acks, failover, read routing.

Wires the pieces together for one database:

* **shipping** — the executor's publish step hands :meth:`ship` the
  :class:`RedoRecord` each participant of a commit appended
  (durability is enabled implicitly), after the durability manager
  recorded them; each is scheduled to apply on every replica after
  the simulated ship latency.  The reference commit order the formal
  audit certifies replicas against is the durability manager's
  per-container ``installed`` sequence: what a container appended is
  recorded once;
* **ack accounting** — :meth:`ship` returns the ``sync``-mode
  acknowledgement delay, and the executor defers root completion
  (releasing its core) until every replica of every participant
  container acked;
* **read-replica routing** — :meth:`route_read` hands read-only root
  transactions to a replica's shadow reactor, round-robin;
* **failover** — :meth:`kill_primary` fails a container (queued and
  in-flight transactions abort, none of them reported committed) and
  :meth:`promote` re-registers the most advanced replica as the new
  primary, seeding its redo log with the applied prefix and catching
  up the remaining replicas.

Replica executors model *other machines*: their simulated cores do not
count against the primary machine's hardware-thread budget, which is
exactly why routing reads to replicas adds capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.concurrency import create_cc_scheme
from repro.core.reactor import Reactor
from repro.durability.wal import RedoLog, RedoRecord, unseal
from repro.errors import ReplicationError, TransactionAbort
from repro.replication.config import ReplicationConfig
from repro.replication.replica import ROLE_PRIMARY, ReplicaContainer
from repro.telemetry.spans import TRACK_REPLICATION


@dataclass
class FailoverEvent:
    """One promotion: which replica took over which container when."""

    container_id: int
    replica_id: int
    at_us: float
    applied_records: int
    #: Acked-but-not-applied commit TIDs at promotion.  Sync mode
    #: guarantees this is empty (zero committed-transaction loss).
    lost_acked: list[int] = field(default_factory=list)
    #: Shipped-but-not-applied records at promotion: the bounded async
    #: lag-window loss.  Always 0 under sync — the kill drains the
    #: ship channel into the replicas before they disconnect.
    lost_records: int = 0
    #: Commit TIDs of lost records that survive in *another*
    #: container's shipped order — cross-container transactions whose
    #: atomicity the failover broke (async only; empty under sync).
    atomicity_breaks: list[int] = field(default_factory=list)


class ReplicationManager:
    """Owns the replicas of one database and drives log shipping."""

    def __init__(self, database: Any, config: ReplicationConfig) -> None:
        if not config.enabled:
            raise ReplicationError(
                "ReplicationManager needs an enabled ReplicationConfig")
        self.database = database
        self.config = config
        #: One record per promotion, in order.
        self.failovers: list[FailoverEvent] = []
        #: container id -> replicas still in the "replica" role.
        self.replicas: dict[int, list[ReplicaContainer]] = {}
        #: container id -> commit TIDs acknowledged by all replicas
        #: (sync mode only; the zero-loss set the audit checks).
        self.acked_tids: dict[int, set[int]] = {}
        #: container id -> shipping epoch; a kill bumps it, so apply
        #: and ack events scheduled against the dead primary are
        #: dropped when they fire (the replica "disconnected").
        self.ship_epoch: dict[int, int] = {}
        #: container id -> virtual time of the last scheduled apply:
        #: the ship channel is FIFO, so a small record shipped after a
        #: large one must not overtake it (applies would otherwise
        #: land out of commit order and break prefix consistency).
        self._pipe: dict[int, float] = {}
        #: container id -> (reactor, table) -> bulk-loaded base rows
        #: (the replay baseline of the formal replica audit).
        self.base_rows: dict[int, dict[tuple[str, str],
                                       list[dict[str, Any]]]] = {}
        self._read_route: dict[int, int] = {}
        self._next_replica_id = 0
        #: Deliberate-bug toggle (chaos self-test only): silently drop
        #: one shipped record per container mid-stream — a lost-update
        #: bug the replica prefix-consistency certificate must catch.
        self.chaos_drop_ship = False
        self._chaos_dropped: dict[int, bool] = {}

        # Deferred: durability.recovery imports core.database, which
        # builds this manager — importing it at module scope would be
        # circular.
        from repro.durability.recovery import enable_durability

        self.durability = enable_durability(database)
        self._telemetry = database.telemetry
        registry = self._telemetry.registry
        #: Sampled only here, on channel-shipped applies: kill-drain
        #: and promotion catch-up applies have no ship latency and
        #: must not deflate the mean.
        self._lag_hist = registry.histogram("replication_lag_us")
        self._shipped = registry.counter(
            "replication_records_shipped_total")
        self._applied = registry.counter(
            "replication_records_applied_total")
        self._acked = registry.counter("replication_acked_records_total")
        self._sync_waits = registry.counter(
            "replication_sync_commit_waits_total")
        self._sync_wait_us = registry.counter(
            "replication_sync_ack_wait_us")
        self._routed = registry.counter("replication_reads_routed_total")
        #: Commits/roots aborted because a participant container
        #: failed; booked here and by the executor and
        #: :meth:`~repro.core.database.ReactorDatabase.refuse_root`.
        self.failover_aborts = registry.counter(
            "replication_failover_aborts_total")
        self._build_replicas()

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _build_replicas(self) -> None:
        database = self.database
        deployment = database.deployment
        core_id = database.first_worker_core
        for cid, container in enumerate(database.containers):
            self.acked_tids[cid] = set()
            self.replicas[cid] = []
            self.ship_epoch[cid] = 0
            self._pipe[cid] = 0.0
            self.base_rows[cid] = {}
            self._read_route[cid] = 0
            spec = deployment.containers[cid]
            primaries = [r for r in database._reactors.values()
                         if r.container is container]
            for __ in range(self.config.replicas_per_container):
                concurrency = create_cc_scheme(
                    deployment.cc_scheme, cid, database.epochs)
                replica = ReplicaContainer(
                    self._next_replica_id, container, database,
                    concurrency)
                self._next_replica_id += 1
                for ___ in range(spec.executors):
                    replica.add_executor(core_id)
                    core_id += 1
                for reactor in primaries:
                    replica.add_shadow(reactor,
                                       pin=deployment.pin_reactors)
                self.replicas[cid].append(replica)
        database.first_worker_core = core_id

    # ------------------------------------------------------------------
    # Shipping and ack accounting (called from the executor commit path)
    # ------------------------------------------------------------------

    def ship(self, records: Sequence[tuple[int, RedoRecord]]) -> float:
        """Ship one installed commit's ``(container id, record)``
        pairs to their containers' replicas; return the sync-ack delay
        the executor must wait before reporting completion (0.0 in
        async mode, or when no participant has a replica)."""
        self._shipped.value += len(records)
        scheduler = self.database.scheduler
        costs = self.database.costs
        sync = self.config.mode == "sync"
        commit_time = scheduler.now
        ack_delay = 0.0
        for cid, record in records:
            replicas = self.replicas.get(cid)
            if not replicas:
                continue
            epoch = self.ship_epoch[cid]
            if self.chaos_drop_ship and \
                    not self._chaos_dropped.get(cid) and \
                    len(self.durability.installed[cid]) >= 3:
                # Bug toggle: lose this record on the wire (it stays
                # in ``installed``, the reference order, so the replica
                # prefix check sees the hole once a later record
                # lands).
                self._chaos_dropped[cid] = True
                continue
            apply_delay = (costs.repl_ship_delay
                           + costs.repl_apply_per_write
                           * len(record.entries))
            if not sync:
                apply_delay += self.config.async_lag_us
            # FIFO channel: never overtake an earlier ship (equal
            # times keep insertion order in the scheduler).
            apply_at = max(commit_time + apply_delay, self._pipe[cid])
            self._pipe[cid] = apply_at
            for replica in replicas:
                scheduler.at(apply_at, self._apply, cid, epoch,
                             replica, record, commit_time)
            if sync:
                ack_at = apply_at + costs.repl_ack_delay
                ack_delay = max(ack_delay, ack_at - commit_time)
                scheduler.at(ack_at, self._record_ack, cid, epoch,
                             record.commit_tid)
        if sync and ack_delay > 0.0:
            self._sync_waits.value += 1
            self._sync_wait_us.value += ack_delay
        return ack_delay

    def _apply(self, cid: int, epoch: int, replica: ReplicaContainer,
               record: RedoRecord, commit_time: float) -> None:
        if epoch != self.ship_epoch[cid]:
            # Shipped by a primary that has since failed: the replica
            # is disconnected from it; promotion catch-up (or the new
            # primary's own shipping) is the only legitimate source.
            return
        replica.apply_record(record)
        lag = self.database.scheduler.now - commit_time
        self._applied.value += 1
        self._lag_hist.observe(lag)
        telemetry = self._telemetry
        if telemetry.system_tracing:
            # Ship -> apply as one span on the replication track, one
            # per (record, replica); the ack ride-along is the
            # executor-side replication:ack_wait span.
            telemetry.system_span(
                "rep:ship_apply", TRACK_REPLICATION,
                replica.replica_id, commit_time,
                self.database.scheduler.now,
                {"container": cid, "tid": record.commit_tid,
                 "lag_us": round(lag, 3)})

    def _record_ack(self, cid: int, epoch: int,
                    commit_tid: int) -> None:
        if epoch != self.ship_epoch[cid]:
            return
        self.acked_tids[cid].add(commit_tid)
        self._acked.value += 1

    def on_bulk_load(self, reactor_name: str, table_name: str,
                     rows: list[dict[str, Any]]) -> None:
        """Mirror a non-transactional bulk load to every replica of the
        loaded reactor's container (loads bypass the redo log)."""
        reactor = self.database.reactor(reactor_name)
        cid = reactor.container.container_id
        base = self.base_rows[cid].setdefault(
            (reactor_name, table_name), [])
        # Callers pass fresh row dicts and tables never alias caller
        # dicts (install copies), so the audit baseline can keep the
        # rows by reference instead of re-copying the whole dataset.
        base.extend(rows)
        for replica in self.replicas.get(cid, []):
            replica.mirror_load(reactor_name, table_name, rows)

    # ------------------------------------------------------------------
    # Online migration (called by repro.migration at the routing flip)
    # ------------------------------------------------------------------

    def on_reactor_migrated(self, old_reactor: Any, new_reactor: Any,
                            snapshot_records: list[RedoRecord]) -> None:
        """Re-home a migrated reactor's replica shards.

        Every replica of the destination container gains a shadow of
        the successor, seeded with the migration's snapshot
        after-images; the snapshot becomes the audit's replay baseline
        for the reactor at its new home, fenced so that stale entries
        from a previous residence in the same container cannot replay
        over it.  The source replicas keep their applied history — a
        replica mirrors its primary's full shipped order — but the
        shard is no longer served (or promoted into routing) there.
        """
        dst_cid = new_reactor.container.container_id
        pin = self.database.deployment.pin_reactors
        base = self.base_rows.setdefault(dst_cid, {})
        # Every table gets a (possibly empty) snapshot baseline: a
        # table that emptied since a previous residence here must
        # overwrite its stale base rows, not keep them.
        by_table: dict[str, list[dict[str, Any]]] = {
            table.name: [] for table in new_reactor.catalog}
        for record in snapshot_records:
            for entry in record.entries:
                assert entry.row is not None
                by_table.setdefault(entry.table, []).append(
                    dict(entry.row))
        for table_name, rows in by_table.items():
            base[(new_reactor.name, table_name)] = rows
        # Seeds carry the migration watermark, not tid 0: a replica-
        # pinned snapshot below the watermark must not resolve
        # migrated-in rows from its future.
        watermark = max((record.commit_tid
                         for record in snapshot_records), default=0)
        for replica in self.replicas.get(dst_cid, []):
            replica.add_shadow(new_reactor, pin=pin)
            replica.reactor_fences[new_reactor.name] = \
                len(replica.applied_records)
            replica.snapshot_floor = max(replica.snapshot_floor,
                                         watermark)
            for table_name, rows in by_table.items():
                replica.mirror_load(new_reactor.name, table_name, rows,
                                    tid=watermark)
        # A *promoted* destination serves the migrated-in reactor as a
        # live primary reactor — there is no shadow to seed — but the
        # audit replays its re-anchored shipped order, so the same
        # fence applies: entries for this name from a previous
        # residence in the container must not replay over the
        # snapshot baseline installed above.
        dst = self.database.containers[dst_cid]
        if dst.role == ROLE_PRIMARY:
            dst.reactor_fences[new_reactor.name] = \
                len(self.durability.installed[dst_cid])

    # ------------------------------------------------------------------
    # Read-replica routing
    # ------------------------------------------------------------------

    def route_read(self, reactor: Reactor) -> Reactor | None:
        """A replica shadow to serve a read-only root on ``reactor``,
        or ``None`` to keep it on the primary.

        A replica pins snapshots at ``max(applied_tid,
        snapshot_floor)``, which is consistent only while it has
        applied every record of its primary at or below the floor (a
        migration's seeds raise the floor to the source watermark); a
        replica still behind that serves nothing until it catches up.
        """
        if not self.config.read_from_replicas:
            return None
        cid = reactor.container.container_id
        group = self.replicas.get(cid)
        if not group:
            return None
        index = self._read_route[cid] % len(group)
        self._read_route[cid] += 1
        replica = group[index]
        tids = self.durability.installed_tids[cid]
        applied = len(replica.applied_records)
        if applied < len(tids) and tids[applied] <= replica.snapshot_floor:
            return None
        shadow = replica.shadow(reactor.name)
        if shadow is not None:
            self._routed.value += 1
        return shadow

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def inject_lag(self, cid: int, extra_us: float) -> None:
        """Stall container ``cid``'s ship channel: everything shipped
        from now on applies no earlier than ``now + extra_us``.

        Models a transient network/apply hiccup.  The channel stays
        FIFO (the spike only advances the pipe watermark), so prefix
        consistency is preserved — what changes is the observable lag
        window, which async-mode certification reports and sync-mode
        commits wait out."""
        if extra_us <= 0.0:
            return
        now = self.database.scheduler.now
        self._pipe[cid] = max(self._pipe.get(cid, 0.0), now + extra_us)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def kill_primary(self, cid: int) -> None:
        """Fail a primary container mid-run.

        Queued invocations abort immediately; tasks already executing
        keep consuming virtual time but abort at commit (their
        concurrency manager is marked failed), so *no* transaction is
        reported committed after the kill without replica coverage.
        """
        container = self.database.containers[cid]
        container.failed = True
        container.concurrency.failed = True
        if self.config.mode == "sync":
            # Sync semantics: a record enters the (reliable, FIFO)
            # ship channel at install time, before anything is
            # reported — the crash cannot destroy channel content, so
            # replicas drain it before disconnecting.  This is what
            # makes cross-container commits atomic across failover:
            # an installed transfer either reaches the replica of
            # every participant or was never reported committed.
            for replica in self.replicas.get(cid, []):
                behind = self.durability.installed[cid][
                    len(replica.applied_records):]
                for sealed in behind:
                    replica.apply_record(unseal(sealed))
                    self._applied.value += 1
        # Disconnect the replicas: in-flight apply/ack events shipped
        # by the dead primary are dropped when they fire (they are
        # duplicates after a sync drain, losses under async), and the
        # ship channel restarts empty for the next primary.
        self.ship_epoch[cid] += 1
        self._pipe[cid] = 0.0
        database = self.database
        for executor in container.executors:
            while executor.queue:
                task = executor.queue.popleft()
                if task.result_future is not None:
                    task.result_future.fail(
                        TransactionAbort(f"container {cid} failed"))
                else:
                    database.refuse_root(task.root, task.on_root_done,
                                         container)

    def promote(self, cid: int) -> ReplicaContainer:
        """Promote the most advanced replica of container ``cid``.

        The replica's applied log prefix becomes the new primary redo
        log (so recovery and the audit keep working across the
        failover), remaining replicas are caught up to that prefix and
        re-pointed at the new log, and the shadow reactors are
        re-registered in the database's routing tables.
        """
        if not self.database.containers[cid].failed:
            raise ReplicationError(
                f"container {cid} is still alive: promoting over a "
                "serving primary would fork the shipped order (call "
                "kill_primary first, or kill_and_promote)"
            )
        group = self.replicas.get(cid)
        if not group:
            raise ReplicationError(
                f"container {cid} has no replica to promote")
        target = max(group,
                     key=lambda r: (len(r.applied_records),
                                    -r.replica_id))
        group.remove(target)
        target.role = ROLE_PRIMARY
        database = self.database
        scheduler = database.scheduler

        # Loss accounting against the old primary's shipped order:
        # sync acks are only recorded after every replica applied (and
        # the kill drained the channel), so lost_acked and lost_records
        # are provably empty under sync; under async the lag window is
        # lost, and any lost record whose commit TID also appears in a
        # surviving container's order is a broken cross-container
        # transaction — reported, because it is the inherent atomicity
        # price of async replication.
        installed_tids = self.durability.installed_tids
        lost_acked = sorted(self.acked_tids[cid]
                            - target.applied_tids)
        lost_suffix = installed_tids[cid][len(target.applied_records):]
        lost_records = len(lost_suffix)
        surviving_tids = {
            tid
            for other_cid, tids in installed_tids.items()
            if other_cid != cid
            for tid in tids
        }
        atomicity_breaks = sorted(set(lost_suffix) & surviving_tids)
        recorder = database.history_recorder
        if recorder is not None and lost_suffix:
            # The lost suffix's writes never reach a reader again.
            recorder.drop_installs(map(unseal, self.durability.installed[
                cid][len(target.applied_records):]))

        # Catch the remaining replicas up to the promoted prefix (a
        # replica is always a prefix of the shipped order, so the
        # missing records are exactly the promoted suffix).  Applied
        # synchronously within the promotion event so no stale
        # in-flight ship can interleave out of order.
        for sibling in group:
            behind = target.applied_records[len(sibling.applied_records):]
            for sealed in behind:
                sibling.apply_record(unseal(sealed))
                self._applied.value += 1

        # The survivor's TID generator only ever saw the TIDs it
        # applied; a lagging replica is behind the dead primary's
        # generator — and behind any pinned multi-version snapshot
        # (pins advance every primary generator, the dead one
        # included).  Advance it past the global watermark so
        # post-promotion commits exceed every issued TID and every
        # pinned snapshot, preserving both TID uniqueness and the
        # snapshot-isolation prefix invariant across failover.
        target.concurrency.tids.advance_to(
            max(c.concurrency.tids.last
                for c in database.containers))

        # The applied prefix *is* the new primary's redo log — the
        # "replay" of promotion; state was materialized incrementally
        # as records arrived, the log seed re-anchors durability and
        # the audit on the survivor.  on_log_replaced re-registers the
        # group-commit flush pipeline on the new log (the shared
        # batched flush path) with the seeded prefix counted durable —
        # the replica had materialized it.
        new_log = RedoLog(cid, target.applied_records)
        target.concurrency.redo_log = new_log
        self.durability.on_log_replaced(cid, new_log)
        self.acked_tids[cid] = set(target.applied_tids)

        # Re-register routing: the shadows become the reactors.  The
        # dead primary's CC counters move to the survivor so
        # abort_counts() stays monotonic across the failover.  The
        # promoted executors stay OUT of database.executors — that
        # list means "primary-machine cores" to the measurement
        # harness, whose busy-time snapshots would mis-attribute the
        # replica's pre-promotion work if new cores appeared mid-run.
        old = database.containers[cid]
        target.concurrency.stats.merge(old.concurrency.stats)
        database.containers[cid] = target
        for name in list(database._reactors):
            if database._reactors[name].container is old:
                shadow = target.shadow(name)
                assert shadow is not None
                database._reactors[name] = shadow
                # The shadow's tables now serve primary traffic:
                # re-scope them so primary-prefix pins (not this
                # ex-replica's) govern their version retention.
                database.storage.adopt(shadow)
        # Snapshot readers still in flight on the promoted replica
        # follow their tables into the primary scope — otherwise the
        # next install would GC versions they can still reach.
        database.storage.rescope(target)

        self.failovers.append(FailoverEvent(
            container_id=cid,
            replica_id=target.replica_id,
            at_us=scheduler.now,
            applied_records=len(target.applied_records),
            lost_acked=lost_acked,
            lost_records=lost_records,
            atomicity_breaks=atomicity_breaks,
        ))
        return target

    def kill_and_promote(self, cid: int) -> ReplicaContainer:
        """Atomic (single-event) crash + failover of one container."""
        self.kill_primary(cid)
        return self.promote(cid)

    def commit_survived(self, root: Any) -> bool:
        """Did an installed commit's writes survive every failed
        participant's failover?

        Consulted by the executor when a sync ack window was cut short
        by a kill: if each failed participant has a promoted successor
        whose applied prefix contains this commit (guaranteed by the
        sync channel drain once promotion ran), the outcome can be
        truthfully reported as committed instead of in-doubt.
        """
        for manager, session in root.participants():
            if not manager.failed or session.write_count == 0:
                continue
            cid = manager.container_id
            survivor = self.database.containers[cid]
            applied = getattr(survivor, "applied_tids", None)
            if applied is not None and root.commit_tid in applied:
                continue  # already promoted with the record
            # Not promoted yet: the record survives any future
            # promotion iff every remaining replica holds it (the
            # promotion target is one of them).
            group = self.replicas.get(cid)
            if group and all(root.commit_tid in replica.applied_tids
                             for replica in group):
                continue
            return False
        return True
