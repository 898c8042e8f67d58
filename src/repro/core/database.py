"""ReactDB: the reactor database facade.

:class:`ReactorDatabase` assembles everything: it takes the reactor
declarations (names and types — the purely logical application model)
and a :class:`~repro.core.deployment.DeploymentConfig` (the physical
architecture choice), builds containers, transaction executors and
reactor instances on the simulated machine, and exposes the client
driver interface:

* :meth:`submit` — asynchronous invocation with a completion callback
  (used by workload workers);
* :meth:`run` — synchronous convenience for applications/examples:
  drives the simulation until the transaction finishes and returns the
  procedure's result (raising on abort);
* :meth:`load` — non-transactional bulk loading for benchmark setup.

The same application (reactor types + procedures + declarations) runs
unchanged under any deployment — asserting that is one of the
integration test suites.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.concurrency import create_cc_scheme
from repro.concurrency.base import ABORT_REASONS
from repro.concurrency.tid import EpochManager
from repro.core.deployment import ROUND_ROBIN, DeploymentConfig
from repro.core.reactor import Reactor, ReactorType
from repro.errors import (
    DeploymentError,
    TransactionAbort,
    UnknownReactorError,
)
from repro.runtime.backend import create_backend
from repro.runtime.container import Container
from repro.runtime.executor import Task, TransactionExecutor
from repro.runtime.transaction import RootTransaction, TxnStats
from repro.sim.scheduler import SimScheduler
from repro.storage.store import StorageCoordinator
from repro.telemetry import Telemetry

class ReactorDatabase:
    """An instantiated reactor database on a simulated machine."""

    def __init__(self, deployment: DeploymentConfig,
                 reactors: Sequence[tuple[str, ReactorType]],
                 scheduler: SimScheduler | None = None) -> None:
        self.deployment = deployment
        #: The execution backend (see :mod:`repro.runtime.backend`):
        #: ``deployment.backend`` selects it; passing an explicit
        #: ``scheduler`` (tests, shared-clock experiments) overrides.
        self.scheduler = scheduler or create_backend(deployment)
        self.backend_name = self.scheduler.name
        self.costs = deployment.machine.costs
        self.epochs = EpochManager()
        #: The multi-version storage engine state: pinned snapshots of
        #: in-flight read-only roots (the GC watermark source), version
        #: counters, and the optional snapshot-read audit log.  Shared
        #: by primary, replica, and migration-successor tables.
        self.storage = StorageCoordinator()
        self.containers: list[Container] = []
        self.executors: list[TransactionExecutor] = []
        self._reactors: dict[str, Reactor] = {}
        self._txn_counter = 0
        self._root_route_counter = 0
        #: Optional operation-level history capture for
        #: serializability audits (see repro.formal.audit).
        self.history_recorder: Any = None
        #: Durability manager once enable_durability() ran (replication
        #: enables it implicitly).
        self.durability: Any = None
        #: Replication manager when the deployment asks for replicas.
        self.replication: Any = None
        #: Online-migration manager (repro.migration).  ``_build``
        #: always attaches one, so it is never ``None`` once the
        #: database is constructed.
        self.migration: Any = None
        #: The unified telemetry facade (metrics registry + span
        #: tracer + exporters).  Created before ``_build`` so every
        #: manager can take its metrics from the registry when built.
        self.telemetry = Telemetry(self, deployment.telemetry)
        self._build(reactors)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _build(self, reactors: Sequence[tuple[str, ReactorType]]) -> None:
        deployment = self.deployment
        if deployment.total_executors > \
                deployment.machine.hardware_threads:
            raise DeploymentError(
                f"deployment wants {deployment.total_executors} "
                f"executors but machine "
                f"{deployment.machine.name!r} has only "
                f"{deployment.machine.hardware_threads} hardware threads"
            )
        core_id = 0
        for cid, spec in enumerate(deployment.containers):
            concurrency = create_cc_scheme(
                deployment.cc_scheme, cid, self.epochs)
            container = Container(cid, self, concurrency)
            for __ in range(spec.executors):
                executor = container.add_executor(core_id)
                self.executors.append(executor)
                core_id += 1
            self.containers.append(container)
        #: first core id available for client workers.
        self.first_worker_core = core_id

        n_containers = len(self.containers)
        for index, (name, rtype) in enumerate(reactors):
            if name in self._reactors:
                raise DeploymentError(f"duplicate reactor name {name!r}")
            reactor = Reactor(name, rtype)
            self.storage.adopt(reactor)
            cid = deployment.placement.container_for(
                name, index, n_containers)
            if not 0 <= cid < n_containers:
                raise DeploymentError(
                    f"placement put reactor {name!r} in container {cid}, "
                    f"but only {n_containers} exist"
                )
            container = self.containers[cid]
            reactor.container = container
            executor = container.executors[
                index % len(container.executors)]
            reactor.affinity_executor = executor
            if deployment.pin_reactors:
                reactor.pinned_executor = executor
            self._reactors[name] = reactor

        if deployment.durability.enabled:
            # Attach before replication so the configured
            # durability_mode wins: replication enables durability
            # implicitly (idempotently) with the legacy async default.
            from repro.durability.recovery import enable_durability

            enable_durability(self, mode=deployment.durability.mode)

        if deployment.replication.enabled:
            from repro.replication.manager import ReplicationManager

            self.replication = ReplicationManager(
                self, deployment.replication)

        # Deferred for the same reason as the replication manager: the
        # migration layer reaches back into core/runtime modules.
        from repro.migration.manager import MigrationManager

        self.migration = MigrationManager(self)

        self.telemetry.attach_collectors()

        # Wall-clock backends spawn their per-container worker threads
        # only once the container count is known.
        self.scheduler.attach(len(self.containers))

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def reactor(self, name: str) -> Reactor:
        try:
            return self._reactors[name]
        except KeyError:
            raise UnknownReactorError(
                f"no reactor named {name!r} was declared"
            ) from None

    def reactor_names(self) -> list[str]:
        return sorted(self._reactors)

    def __contains__(self, name: str) -> bool:
        return name in self._reactors

    # ------------------------------------------------------------------
    # Client driver interface
    # ------------------------------------------------------------------

    def submit(self, reactor_name: str, proc_name: str, *args: Any,
               on_done: Callable[..., None] | None = None,
               read_only: bool | None = None,
               **kwargs: Any) -> RootTransaction:
        """Send a root transaction into the system (asynchronous).

        ``on_done(root, committed, reason, result)`` fires (in virtual
        time) when the transaction completes.  An unknown reactor or
        procedure name raises here, before anything is scheduled.

        ``read_only`` marks the root as read-only (writes abort); when
        omitted it is inferred from the procedure's declaration
        (``@rtype.procedure(read_only=True)``).  Under a deployment
        with ``read_from_replicas``, read-only roots are routed to a
        replica of their home container — bounded-staleness reads on
        separate simulated cores.
        """
        # Transaction-id assignment, routing counters, and telemetry
        # are shared bookkeeping, serialized by the backend.
        return self.scheduler.guarded((), self._submit, reactor_name,
                                      proc_name, args, kwargs, on_done,
                                      read_only)

    def _submit(self, reactor_name: str, proc_name: str,
                args: tuple, kwargs: dict[str, Any],
                on_done: Callable[..., None] | None,
                read_only: bool | None) -> RootTransaction:
        try:
            reactor = self._reactors[reactor_name]
        except KeyError:
            reactor = self.reactor(reactor_name)  # raises the typed error
        if proc_name not in reactor.rtype.procedures:
            reactor.rtype.get_procedure(proc_name)  # raises the typed error
        self.migration.note_submit(reactor_name)
        if read_only is None:
            read_only = proc_name in reactor.rtype.read_only_procedures
        if read_only and self.replication is not None:
            shadow = self.replication.route_read(reactor)
            if shadow is not None:
                reactor = shadow
        self._txn_counter += 1
        now = self.scheduler.now
        root = RootTransaction(
            txn_id=self._txn_counter,
            procedure=proc_name,
            reactor_name=reactor_name,
            start_time=now,
        )
        root.read_only = bool(read_only)
        self.telemetry.trace_root(root, now)
        task = Task(root, reactor, proc_name, args, kwargs,
                    on_root_done=on_done)
        if reactor.migrating:
            # Mid-migration: the root parks in the migration queue and
            # replays at the destination after the routing flip.
            self.migration.park_root(reactor.name, task)
            return root
        if reactor.container.failed:
            # Failed primary with no promoted replacement yet: refuse
            # immediately rather than queueing on a dead executor.
            self.refuse_root(root, on_done, reactor.container)
            return root
        self._route_root(reactor).submit(task)
        return root

    def refuse_root(self, root: RootTransaction,
                    on_done: Callable[..., None] | None,
                    container: Container) -> None:
        """Report a root that never ran because ``container`` failed:
        done, uncommitted and one failover abort, once.  ``on_done`` is
        scheduled with ``soon``, at the instant the refusal is
        decided."""
        root.finished = True
        reason = f"container {container.container_id} failed"
        if self.replication is not None:
            self.replication.failover_aborts.value += 1
        self.telemetry.note_root_done(root, False, reason,
                                      self.scheduler.now)
        if on_done is not None:
            self.scheduler.soon(on_done, root, False, reason, None)

    def _route_root(self, reactor: Reactor) -> TransactionExecutor:
        container = reactor.container
        if self.deployment.routing == ROUND_ROBIN:
            executor = container.executors[
                self._root_route_counter % len(container.executors)]
            self._root_route_counter += 1
            return executor
        return reactor.affinity_executor

    # ------------------------------------------------------------------
    # Multi-version snapshot reads (repro.storage / repro.concurrency.
    # mvcc)
    # ------------------------------------------------------------------

    def tid_watermark(self) -> int:
        """The global commit-TID watermark: the highest TID any
        container has issued (every commit is fully installed at or
        below it — installs are single scheduler events)."""
        return max(c.concurrency.tids.last for c in self.containers)

    def begin_snapshot_session(self, root: RootTransaction,
                               container: Any):
        """A snapshot session for a read-only root in ``container``,
        or ``None`` when the deployment does not snapshot reads.

        The first session of a root pins its snapshot: on a primary,
        at the global TID watermark — every primary TID generator is
        then advanced to it, so every later commit anywhere exceeds
        the snapshot and the pinned state is a transaction-consistent
        prefix; on a replica, at the replica's applied watermark
        (bounded-staleness reads over its applied log prefix).  The
        pin also anchors version GC until the root completes.
        """
        if not self.deployment.snapshot_reads:
            return None
        # Pinning reads the global watermark and advances every
        # container's TID generator: cross-container state, serialized
        # by the backend.
        return self.scheduler.guarded((), self._begin_snapshot_session,
                                      root, container)

    def _begin_snapshot_session(self, root: RootTransaction,
                                container: Any):
        if root.snapshot_tid is None:
            if container.role == "replica":
                # Replica-scoped pin: retains history only on this
                # replica's shadows (the sole tables it can read).
                # The pin sits at the replica's *materialized*
                # position — its applied watermark, floored by any
                # migration seed watermark (re-homed shards are seeded
                # as-of the source watermark).
                snapshot_tid = max(container.applied_tid,
                                   container.snapshot_floor)
                self.storage.pin(root.txn_id, snapshot_tid,
                                 scope=container)
            else:
                snapshot_tid = self.tid_watermark()
                for other in self.containers:
                    other.concurrency.tids.advance_to(snapshot_tid)
                self.storage.pin(root.txn_id, snapshot_tid)
            root.snapshot_tid = snapshot_tid
        return container.concurrency.begin_snapshot_session(
            root.txn_id, root.snapshot_tid)

    def _all_tables(self):
        for reactor in self._reactors.values():
            yield from reactor.catalog
        if self.replication is not None:
            for group in self.replication.replicas.values():
                for replica in group:
                    for name in replica.shadow_names():
                        yield from replica.shadow(name).catalog

    def run(self, reactor_name: str, proc_name: str, *args: Any,
            **kwargs: Any) -> Any:
        """Execute one transaction to completion in virtual time.

        Returns the procedure's return value; raises
        :class:`~repro.errors.TransactionAbort` when the transaction
        aborts (user abort, dangerous structure, or validation
        failure).  Intended for applications and examples; benchmark
        workloads use :meth:`submit` with workers instead.
        """
        box: dict[str, Any] = {}

        def on_done(root: RootTransaction, committed: bool,
                    reason: str | None, result: Any) -> None:
            box["committed"] = committed
            box["reason"] = reason
            box["result"] = result

        self.submit(reactor_name, proc_name, *args,
                    on_done=on_done, **kwargs)
        self.scheduler.run()
        if "committed" not in box:
            raise TransactionAbort(
                "transaction did not complete; simulation stalled")
        if not box["committed"]:
            raise TransactionAbort(box["reason"] or "aborted")
        return box["result"]

    # ------------------------------------------------------------------
    # Bulk loading and inspection
    # ------------------------------------------------------------------

    def load(self, reactor_name: str, table_name: str,
             rows: Iterable[Mapping[str, Any]]) -> int:
        """Load rows without concurrency control (benchmark setup).

        Bulk loads bypass the redo log, so under replication they are
        mirrored to the reactor's replicas directly.
        """
        table = self.reactor(reactor_name).table(table_name)
        if self.replication is None and self.durability is None:
            count = 0
            for row in rows:
                table.load_row(row)
                count += 1
            return count
        if self.replication is not None:
            # The replica mirror keeps the rows, so it needs owned
            # copies; durability below only reads their keys.
            loaded: list = [dict(row) for row in rows]
            for row in loaded:
                table.load_row(row)
            if loaded:
                self.replication.on_bulk_load(reactor_name,
                                              table_name, loaded)
        else:
            loaded = []
            for row in rows:
                table.load_row(row)
                loaded.append(row)
        if loaded and self.durability is not None:
            # Loads bypass the redo log; the incremental-checkpoint
            # dirty tracker must still see their keys.
            self.durability.note_bulk_load(
                reactor_name, table_name,
                (table.schema.primary_key_of(row) for row in loaded))
        return len(loaded)

    def table_rows(self, reactor_name: str,
                   table_name: str) -> list[dict[str, Any]]:
        """Committed rows of one reactor's table (tests/inspection)."""
        return self.reactor(reactor_name).table(table_name).rows()

    def abort_counts(self) -> dict[str, Any]:
        """Concurrency-control statistics across containers.

        Per-scheme, per-reason abort breakdown sourced from the CC
        stats counters: ``by_reason`` maps reason (validation failure,
        lock conflict, deadlock avoidance, wound, user abort, dangerous
        structure) to the number of abort events.  These are
        *events*, not aborted transactions: counters are per-container
        and summed, so a multi-container user abort contributes once
        per participant, and one doomed transaction can in principle
        appear under more than one reason.  For per-transaction abort
        rates use the benchmark summaries
        (:class:`repro.bench.metrics.RunSummary`).  Every key is a
        view of a ``cc_*`` registry metric; this dict and
        :meth:`durability_stats` stay because the end-to-end benchmark
        (``benchmarks/e2e/harness.py``) reads them.  Any other counter
        is read from ``telemetry.registry.value(name, **labels)``.
        """
        registry = self.telemetry.registry
        by_reason = {reason: registry.value("cc_aborts_total",
                                            reason=reason)
                     for reason in ABORT_REASONS}
        return {
            "scheme": self.deployment.cc_scheme,
            "validations": registry.value("cc_validations_total"),
            "validation_failures":
                registry.value("cc_validation_failures_total"),
            "by_reason": by_reason,
            "total_aborts": sum(by_reason.values()),
        }

    def durability_stats(self) -> dict[str, Any]:
        """Group-commit flush / checkpoint metrics (empty when the
        database runs without durability)."""
        if self.durability is None:
            return {"mode": "none"}
        return self.durability.stats_dict()

    # ------------------------------------------------------------------
    # Online migration and elastic rebalancing (repro.migration)
    # ------------------------------------------------------------------

    def migrate(self, reactor_name: str, dst_container: int,
                on_done: Callable[..., None] | None = None):
        """Move a reactor to another container while serving traffic.

        Returns a :class:`~repro.migration.manager.Migration` handle
        immediately; the drain/copy/flip/replay pipeline runs in
        virtual time (drive the scheduler).  New work submitted to the
        reactor during the migration queues at the destination and
        replays after the routing flip; replica shards are re-homed
        when the deployment replicates.
        """
        self._require_virtual("online migration")
        return self.migration.migrate(reactor_name, dst_container,
                                      on_done=on_done)

    def rebalance(self):
        """One load check: migrate the hottest reactors off
        containers loaded past
        :data:`~repro.migration.manager.IMBALANCE_THRESHOLD` times the
        mean.  Returns the migrations started.  For periodic checks,
        schedule it: ``db.scheduler.at(t, db.rebalance)``."""
        self._require_virtual("elastic rebalancing")
        return self.migration.rebalance()

    def _require_virtual(self, feature: str) -> None:
        if not self.scheduler.is_virtual:
            raise DeploymentError(
                f"{feature} requires the virtual-time 'sim' backend; "
                f"the {self.backend_name!r} backend does not support "
                "it yet (see docs/backends.md)"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the execution backend's OS resources.

        A no-op on the sim backend (a discrete-event scheduler owns
        nothing); on the ``threads`` backend this stops and joins the
        per-container worker, client, and timer threads.  Idempotent.
        """
        self.scheduler.shutdown()


__all__ = ["ReactorDatabase", "RootTransaction", "TxnStats"]
