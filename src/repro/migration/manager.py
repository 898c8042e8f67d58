"""Online reactor migration: drain, park, copy, flip, replay.

ReactDB's claim is that architecture is a deployment-time choice; this
module removes the remaining caveat that it was a *start*-time choice.
A :class:`MigrationManager` (one per database, always attached) moves a
reactor — its records, partial indexes, and routing entry — from one
container to another while the system keeps serving traffic:

1. **park** — the reactor is marked ``migrating``; new root
   transactions submitted to it, and sub-calls from transactions with
   no stake in the source copy, are parked in the migration's queue
   instead of reaching an executor (queued-but-unstarted roots at the
   source are swept into the same queue);
2. **drain** — the migration waits (re-checking every
   ``DRAIN_POLL_US`` of virtual time) until no in-flight root
   transaction that touched the source instance remains, so no session
   can still reference its records;
3. **copy** — the committed state is snapshotted into synthetic
   :class:`~repro.durability.wal.RedoRecord` after-images and replayed
   into a fresh successor instance through the same
   :func:`~repro.durability.wal.apply_record_to` machinery crash
   recovery and replication use, priced by the ``mig_*`` cost
   parameters of :mod:`repro.sim.costs`;
4. **flip** — the routing entry swaps to the successor in a single
   scheduler event (the source is ``retired``; no request can still
   reach it, since its queued roots were swept, its late arrivals
   parked and its sub-calls drained), replication re-homes the
   reactor's replica shards, and the history recorder (when
   attached) aliases the successor so serializability audits span
   the migration;
5. **replay** — the parked work is re-submitted at the destination in
   arrival order.

On top of the mechanism, :meth:`MigrationManager.rebalance` (exposed
as ``db.rebalance()``) watches per-reactor submission counts and moves
the hottest reactors off overloaded containers.  A caller that wants
it periodic schedules it, ``scheduler.at(t, db.rebalance)``.  The
mechanics are the module constants below, not deployment options.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.reactor import Reactor
from repro.durability.wal import DELETE, INSERT, RedoEntry, \
    RedoRecord, apply_record_to
from repro.errors import MigrationAbort, MigrationError
from repro.telemetry.spans import TRACK_MIGRATION

DRAINING = "draining"
COPYING = "copying"
DONE = "done"
CANCELLED = "cancelled"

#: Virtual-time interval between drain-barrier re-checks while a
#: migration waits for in-flight transactions at the source.
DRAIN_POLL_US = 5.0
#: A container is overloaded when its share of the submission window
#: exceeds this multiple of the mean per-container load.
IMBALANCE_THRESHOLD = 1.3
#: Upper bound on migrations one ``rebalance()`` call may start.
MAX_MOVES_PER_CHECK = 4


@dataclass
class Migration:
    """One online migration of one reactor, observable as it runs."""

    reactor_name: str
    src_cid: int
    dst_cid: int
    requested_at: float
    state: str = DRAINING
    #: The serving instance at the source (retired at the flip).
    source: Any = None
    #: The successor instance at the destination (set at the flip).
    target: Any = None
    flipped_at: float = 0.0
    #: Virtual time the drain barrier cleared and the copy began
    #: (bounds the drain/copy phase spans on the migration track).
    copy_started_at: float = 0.0
    drain_polls: int = 0
    rows_copied: int = 0
    reason: str | None = None
    on_done: Callable[["Migration"], None] | None = None
    parked_roots: list[Any] = field(default_factory=list)
    parked_subcalls: list[Any] = field(default_factory=list)
    #: Snapshot after-images the copy replayed (certification anchor).
    snapshot_records: list[RedoRecord] = field(default_factory=list)
    #: Version history below the watermark still needed by snapshot
    #: readers pinned at copy time (true commit TIDs, oldest first);
    #: replayed into the successor *before* the flat cut so its
    #: install path rebuilds the chains.  Dropped after the flip.
    history_records: list[RedoRecord] = field(default_factory=list)
    #: Source TID watermark the snapshot was taken at: every copied
    #: commit has TID <= watermark, every destination commit after the
    #: flip has TID > watermark.
    watermark: int = 0
    #: The redo logs live at the flip, for black-box certification
    #: (record selection is by ``watermark``, robust to promotion
    #: re-seeding): the source log must gain no entries for this
    #: reactor above the watermark, and snapshot + destination entries
    #: above it must replay to the live state (see
    #: repro.formal.audit.certify_migration).
    src_log: Any = None
    dst_log: Any = None

    @property
    def done(self) -> bool:
        return self.state == DONE


class MigrationManager:
    """Owns the online migrations and load accounting of one database."""

    def __init__(self, database: Any) -> None:
        self.database = database
        #: Every finished migration, completed or cancelled, in order.
        self.events: list[Migration] = []
        #: reactor name -> in-progress Migration.
        self.active: dict[str, Migration] = {}
        #: reactor name -> last completed Migration; the previous one
        #: is compacted (snapshot/log anchors released) when a new
        #: migration of the same reactor supersedes it.
        self._last_completed: dict[str, Migration] = {}
        #: reactor name -> root submissions since the window reset
        #: (the load signal rebalancing decides on).
        self.load: dict[str, int] = {}
        #: Deliberate-bug toggle (chaos self-test only): drop parked
        #: roots at the routing flip instead of replaying
        #: them — a lost-work bug the campaign's liveness check (every
        #: submitted root reports an outcome) must catch.
        self.chaos_drop_parked = False
        counter = database.telemetry.registry.counter
        self._started = counter("migration_started_total")
        self._completed = counter("migration_completed_total")
        self._cancelled = counter("migration_cancelled_total")
        self._rows_copied = counter("migration_rows_copied_total")
        self._roots_parked = counter("migration_roots_parked_total")
        self._subcalls_parked = counter(
            "migration_subcalls_parked_total")
        self._rebalance_checks = counter(
            "migration_rebalance_checks_total")
        self._rebalance_moves = counter(
            "migration_rebalance_moves_total")

    # ------------------------------------------------------------------
    # Load accounting (called from ReactorDatabase.submit)
    # ------------------------------------------------------------------

    def note_submit(self, reactor_name: str) -> None:
        self.load[reactor_name] = self.load.get(reactor_name, 0) + 1

    def reset_load_window(self) -> None:
        """Start a fresh submission window (e.g. after a workload
        shift, so rebalancing reacts to current rather than historic
        skew)."""
        self.load.clear()

    # ------------------------------------------------------------------
    # Parking (called from ReactorDatabase.submit and the executor)
    # ------------------------------------------------------------------

    def park_root(self, reactor_name: str, task: Any) -> None:
        migration = self.active[reactor_name]
        migration.parked_roots.append(task)
        self._roots_parked.value += 1
        trace = task.root.trace
        if trace is not None:
            trace.open_child("park", "migration:parked",
                             self.database.scheduler.now,
                             {"reactor": reactor_name})

    def park_subcall(self, reactor_name: str, task: Any) -> None:
        migration = self.active[reactor_name]
        migration.parked_subcalls.append(task)
        self._subcalls_parked.value += 1
        trace = task.root.trace
        if trace is not None:
            trace.open_child(("park", task.subtxn_id),
                             "migration:parked",
                             self.database.scheduler.now,
                             {"reactor": reactor_name})

    # ------------------------------------------------------------------
    # The migration itself
    # ------------------------------------------------------------------

    def migrate(self, reactor_name: str, dst_cid: int,
                on_done: Callable[[Migration], None] | None = None
                ) -> Migration:
        """Start moving ``reactor_name`` to container ``dst_cid``.

        Returns immediately with a :class:`Migration` handle; the
        drain/copy/flip/replay pipeline runs in virtual time (drive the
        scheduler to completion).  ``on_done(migration)`` fires when
        the migration completes or is cancelled.
        """
        database = self.database
        reactor = database.reactor(reactor_name)
        if reactor_name in self.active:
            raise MigrationError(
                f"reactor {reactor_name!r} is already migrating")
        containers = database.containers
        if not 0 <= dst_cid < len(containers):
            raise MigrationError(
                f"destination container {dst_cid} does not exist "
                f"({len(containers)} containers)")
        src = reactor.container
        if src.container_id == dst_cid:
            raise MigrationError(
                f"reactor {reactor_name!r} is already homed in "
                f"container {dst_cid}")
        if src.failed:
            raise MigrationError(
                f"source container {src.container_id} has failed; "
                "promote a replica instead of migrating")
        if containers[dst_cid].failed:
            raise MigrationError(
                f"destination container {dst_cid} has failed")
        # Redo logging anchors the black-box migration certificate
        # (and is already on when replication or durability is).
        from repro.durability.recovery import enable_durability

        enable_durability(database)

        migration = Migration(
            reactor_name=reactor_name,
            src_cid=src.container_id,
            dst_cid=dst_cid,
            requested_at=database.scheduler.now,
            source=reactor,
            on_done=on_done,
        )
        self.active[reactor_name] = migration
        self._started.value += 1
        reactor.migrating = True

        # Sweep queued-but-unstarted roots targeting the reactor out of
        # the source executors into the migration queue; they replay at
        # the destination.  Queued *sub-calls* stay: their roots either
        # touched the reactor already (they drain) or will touch it now
        # (extending the drain barrier by one transaction).
        swept = src.take_queued_roots(reactor)
        migration.parked_roots.extend(swept)
        self._roots_parked.value += len(swept)

        database.scheduler.soon(self._poll_drain, migration)
        return migration

    # -- drain ----------------------------------------------------------

    def _poll_drain(self, migration: Migration) -> None:
        if migration.state != DRAINING:
            return
        database = self.database
        reactor = migration.source
        if database.reactor(migration.reactor_name) is not reactor or \
                reactor.container.failed:
            # The source failed over (promotion re-registered a replica
            # shadow) or crashed without a successor: the source copy
            # is gone, so the migration cannot proceed.
            self._cancel(migration, "source container failed")
            return
        if self._drained(migration, reactor):
            self._begin_copy(migration)
            return
        migration.drain_polls += 1
        database.scheduler.after(DRAIN_POLL_US,
                                 self._poll_drain, migration)

    def _drained(self, migration: Migration, reactor: Reactor) -> bool:
        if reactor.inflight_roots:
            return False
        # Sub-transactions register on the reactor at *dispatch* time
        # (Section 2.2.4), so active_count() also covers sub-calls
        # still in transport flight toward the source — invisible to
        # both the in-flight set and the executor queues.
        if reactor.active_count():
            return False
        src = self.database.containers[migration.src_cid]
        return not src.has_queued_work_for(reactor)

    # -- copy -----------------------------------------------------------

    def _begin_copy(self, migration: Migration) -> None:
        database = self.database
        costs = database.costs
        migration.copy_started_at = database.scheduler.now
        reactor = migration.source
        src = reactor.container
        # Snapshot the committed state as synthetic redo after-images,
        # stamped with the source's TID watermark ("state as of every
        # commit up to here") — the copy is then a log replay.  The
        # rows are read as a *version cut at the watermark*, not the
        # live heads: the drain barrier guarantees no local root still
        # writes here, but a snapshot-read root pinned elsewhere could
        # otherwise race the copy with an in-flight commit's install,
        # and under the multi-version engine the as-of read is exact
        # either way.
        watermark = src.concurrency.tids.last
        # Durability barrier: force the source's open group-commit
        # epoch down before its state leaves the container, so every
        # commit below the copy watermark is durable at the source by
        # the time the successor serves it (the copy itself is never
        # logged — the watermark interplay the crash certificate and
        # checkpoint truncation rely on).
        durability = database.durability
        if durability is not None:
            durability.kick_flush(src.container_id)
        rows = 0
        records: list[RedoRecord] = []
        for table in reactor.catalog:
            entries = []
            for row in table.rows_as_of(watermark):
                # rows_as_of yields fresh copies — owned outright, no
                # defensive re-copy.
                entries.append(RedoEntry(
                    reactor=reactor.name, table=table.name,
                    kind=INSERT,
                    pk=table.schema.primary_key_of(row),
                    row=row))
            rows += len(entries)
            if entries:
                records.append(RedoRecord(watermark, tuple(entries)))
        migration.snapshot_records = records
        migration.rows_copied = rows
        migration.watermark = watermark
        # Snapshot readers pinned below the watermark still need
        # pre-watermark versions of this reactor; the flat cut alone
        # (restamped at the watermark) would make every row invisible
        # to them.  Copy the retained history at its true commit TIDs
        # too — replayed before the cut, the destination's own install
        # path rebuilds the chains.
        keep = database.storage.keep_watermark()
        if keep is not None:
            migration.history_records = self._collect_history(
                reactor, keep)
        migration.state = COPYING

        copy_cost = costs.mig_copy_base + costs.mig_copy_per_row * rows
        # The snapshot burns CPU at the source, the install at the
        # destination (bookkeeping as for replica applies: the copy is
        # a scheduler event, not an executor task).
        if src.executors:
            src.executors[0].busy_time += copy_cost
        dst = database.containers[migration.dst_cid]
        if dst.executors:
            dst.executors[0].busy_time += copy_cost
        database.scheduler.after(copy_cost + costs.mig_flip_cost,
                                 self._flip, migration, watermark)

    def _collect_history(self, reactor: Reactor,
                         keep: int) -> list[RedoRecord]:
        """Version history a snapshot pinned at ``keep`` (or later,
        below the copy watermark) can still read: for every record,
        its versions from the newest one at or below ``keep`` up to
        the live head, as single-entry redo records at their *true*
        commit TIDs, oldest first.  Tombstones become DELETE entries
        so deleted-after-snapshot keys resolve correctly."""
        events: list[tuple[int, RedoEntry]] = []
        for table in reactor.catalog:
            for record in table.all_records():
                versions = [(record.tid, record.value, record.deleted)]
                node = record.prev
                while node is not None:
                    versions.append((node.tid, node.value,
                                     node.deleted))
                    node = node.prev
                needed = []
                for tid, value, deleted in versions:  # newest first
                    needed.append((tid, value, deleted))
                    if tid <= keep:
                        break
                for tid, value, deleted in reversed(needed):
                    if deleted:
                        if tid == 0:
                            continue  # pristine insert placeholder
                        events.append((tid, RedoEntry(
                            reactor=reactor.name, table=table.name,
                            kind=DELETE, pk=record.key, row=None)))
                    else:
                        events.append((tid, RedoEntry(
                            reactor=reactor.name, table=table.name,
                            kind=INSERT, pk=record.key,
                            row=dict(value))))
        events.sort(key=lambda pair: pair[0])
        return [RedoRecord(tid, (entry,)) for tid, entry in events]

    # -- flip + replay --------------------------------------------------

    def _flip(self, migration: Migration, watermark: int) -> None:
        database = self.database
        old = migration.source
        dst = database.containers[migration.dst_cid]
        if database.reactor(migration.reactor_name) is not old or \
                old.container.failed:
            self._cancel(migration, "source container failed")
            return
        if dst.failed:
            self._cancel(migration, "destination container failed")
            return

        new = Reactor(old.name, old.rtype)
        new.container = dst
        database.storage.adopt(new)
        executor = dst.route(new)
        new.affinity_executor = executor
        if database.deployment.pin_reactors:
            new.pinned_executor = executor
        new.epoch = old.epoch + 1

        def table_for(reactor_name: str, table_name: str):
            return new.table(table_name)

        # Pre-watermark history first (true TIDs, builds the chains
        # pinned snapshot readers resolve through), then the flat
        # watermark cut on top; the history anchors nothing after the
        # flip and is released.
        for record in migration.history_records:
            apply_record_to(table_for, record)
        migration.history_records = []
        for record in migration.snapshot_records:
            apply_record_to(table_for, record)
        # Commits at the destination must exceed every copied TID.
        dst.concurrency.tids.advance_to(watermark)

        if database.replication is not None:
            database.replication.on_reactor_migrated(
                old, new, migration.snapshot_records)

        # Certification anchors: the logs live at the flip instant.
        durability = database.durability
        if durability is not None:
            migration.src_log = durability.logs.get(migration.src_cid)
            migration.dst_log = durability.logs.get(migration.dst_cid)

        # The atomic routing flip: one scheduler event, no transaction
        # can observe a half-moved reactor.
        database._reactors[old.name] = new
        old.retired = True
        old.migrating = False
        old.migrated_to = new
        migration.target = new
        migration.flipped_at = database.scheduler.now
        migration.state = DONE
        del self.active[old.name]
        self._completed.value += 1
        self._rows_copied.value += migration.rows_copied
        self.events.append(migration)
        telemetry = database.telemetry
        if telemetry.system_tracing:
            # The two phases on the migration track: the drain barrier
            # (request -> last in-flight root gone) and the copy+flip.
            telemetry.system_span(
                "migration:drain", TRACK_MIGRATION, migration.dst_cid,
                migration.requested_at, migration.copy_started_at,
                {"reactor": old.name, "polls": migration.drain_polls})
            telemetry.system_span(
                "migration:copy_flip", TRACK_MIGRATION,
                migration.dst_cid, migration.copy_started_at,
                migration.flipped_at,
                {"reactor": old.name,
                 "rows": migration.rows_copied})

        # Replay parked work at the destination, in arrival order,
        # paying a dispatch cost per replayed request.  The lists are
        # released afterwards (the scheduled events carry the
        # tasks), and a previously completed migration of the
        # same reactor gives up its certification anchors too —
        # certify_migration only state-checks the latest one.
        replay = database.costs.mig_replay_per_txn
        delay = 0.0
        if self.chaos_drop_parked:
            # Bug toggle: the parked roots silently vanish (their
            # ``on_done`` never fires); parked sub-calls still replay
            # so in-flight parents don't wedge the whole scheduler.
            migration.parked_roots = []
        for task in migration.parked_roots:
            delay += replay
            database.scheduler.after(delay, self._replay_root, task)
        for task in migration.parked_subcalls:
            delay += replay
            database.scheduler.after(delay, self._replay_subcall, task)
        migration.parked_roots = []
        migration.parked_subcalls = []
        superseded = self._last_completed.get(old.name)
        if superseded is not None:
            superseded.snapshot_records = []
            superseded.src_log = None
            superseded.dst_log = None
        self._last_completed[old.name] = migration
        if migration.on_done is not None:
            database.scheduler.soon(migration.on_done, migration)

    def _replay_root(self, task: Any) -> None:
        database = self.database
        reactor = database.reactor(task.root.reactor_name)
        if reactor.migrating:
            # A back-to-back migration started before this replay ran:
            # keep the task parked for the new migration.
            self.park_root(reactor.name, task)
            return
        task.reactor = reactor
        if reactor.container.failed:
            database.refuse_root(task.root, task.on_root_done,
                                 reactor.container)
            return
        trace = task.root.trace
        if trace is not None:
            trace.close_child("park", database.scheduler.now)
        database._route_root(reactor).submit(task)

    def _replay_subcall(self, task: Any) -> None:
        database = self.database
        reactor = database.reactor(task.reactor.name)
        if reactor.migrating:
            self.park_subcall(reactor.name, task)
            return
        task.reactor = reactor
        trace = task.root.trace
        if trace is not None:
            trace.close_child(("park", task.subtxn_id),
                              database.scheduler.now)
        # executor.submit fails the result future itself when the
        # container is down, so the caller aborts instead of hanging.
        reactor.container.route(reactor).submit(task)

    def _cancel(self, migration: Migration, reason: str) -> None:
        database = self.database
        migration.state = CANCELLED
        migration.reason = reason
        migration.source.migrating = False
        self.active.pop(migration.reactor_name, None)
        self._cancelled.value += 1
        self.events.append(migration)
        # Parked work is not lost: replay it against current routing
        # (a promoted replica, or an abort report if the home is dead).
        for task in migration.parked_roots:
            self._replay_root(task)
        for task in migration.parked_subcalls:
            current = database.reactor(task.reactor.name)
            if current.container.failed:
                task.result_future.fail(
                    MigrationAbort(
                        f"migration of {migration.reactor_name!r} "
                        f"cancelled: {reason}"))
            else:
                self._replay_subcall(task)
        migration.parked_roots = []
        migration.parked_subcalls = []
        if migration.on_done is not None:
            database.scheduler.soon(migration.on_done, migration)

    # ------------------------------------------------------------------
    # Elastic rebalancing
    # ------------------------------------------------------------------

    def movable_reactors(self) -> list[str]:
        """Reactors eligible to start a migration right now: live on a
        non-failed container and not already mid-migration.  Sorted,
        so randomized fault campaigns can pick deterministically."""
        names = []
        for name in self.database.reactor_names():
            if name in self.active:
                continue
            reactor = self.database.reactor(name)
            if reactor.migrating or reactor.container.failed:
                continue
            names.append(name)
        return sorted(names)

    def container_loads(self) -> list[int]:
        """Submissions per container over the current window (load of
        reactors mid-migration counts toward their destination)."""
        database = self.database
        loads = [0] * len(database.containers)
        for name, count in self.load.items():
            if name in self.active:
                loads[self.active[name].dst_cid] += count
                continue
            if name in database:
                cid = database.reactor(name).container.container_id
                loads[cid] += count
        return loads

    def rebalance(self) -> list[Migration]:
        """One load check: migrate the hottest reactors off
        containers loaded past ``IMBALANCE_THRESHOLD`` times the mean,
        at most ``MAX_MOVES_PER_CHECK`` of them.  Returns the
        migrations started."""
        database = self.database
        self._rebalance_checks.value += 1
        n_containers = len(database.containers)
        loads = self.container_loads()
        total = sum(loads)
        if n_containers < 2 or total == 0:
            return []
        mean = total / n_containers
        threshold = IMBALANCE_THRESHOLD * mean
        # Hottest reactors per container, from the submission window.
        by_container: dict[int, list[tuple[int, str]]] = {}
        for name, count in sorted(self.load.items()):
            if name in self.active or name not in database:
                continue
            reactor = database.reactor(name)
            if reactor.container.failed:
                continue
            cid = reactor.container.container_id
            by_container.setdefault(cid, []).append((count, name))
        for candidates in by_container.values():
            candidates.sort(reverse=True)

        moves: list[Migration] = []
        # Containers whose overload rebalancing cannot improve
        # (inherent single-reactor skew, no movable candidate): skipped
        # rather than ending the check, so a *different* overloaded
        # container still gets its turn within the move budget.
        unfixable: set[int] = set()
        while len(moves) < MAX_MOVES_PER_CHECK:
            sources = [cid for cid in range(n_containers)
                       if cid not in unfixable]
            if not sources:
                break
            src_cid = max(sources, key=loads.__getitem__)
            if loads[src_cid] <= threshold:
                break
            dst_cid = min(
                (cid for cid in range(n_containers)
                 if not database.containers[cid].failed),
                key=loads.__getitem__, default=None)
            if dst_cid is None or dst_cid == src_cid:
                break
            candidates = by_container.get(src_cid, [])
            move = None
            for index, (count, name) in enumerate(candidates):
                # Only move a reactor if that actually reduces the
                # imbalance between the two containers.
                if loads[dst_cid] + count < loads[src_cid]:
                    move = (index, count, name)
                    break
            if move is None:
                unfixable.add(src_cid)
                continue
            index, count, name = move
            candidates.pop(index)
            moves.append(self.migrate(name, dst_cid))
            loads[src_cid] -= count
            loads[dst_cid] += count
            self._rebalance_moves.value += 1
        self.reset_load_window()
        return moves
