"""The ``db.telemetry`` facade: one object owning the registry and
tracer of a database.

The facade is created *before* the database builds its containers, so
every manager can register its collectors during construction; the
database calls :meth:`Telemetry.attach_collectors` at the end of
``_build`` for the core surfaces (CC, storage, executors, scheduler).
All collector registration is idempotent — replication promotion and
log replacement just re-register and the gauges re-point.

Hot-path contract: an unsampled root allocates nothing — it carries
``trace = None`` — and the collector gauges (pure pull) cost nothing
until read.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.telemetry import export as _export
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceHandle, Tracer

#: Abort reasons, in the legacy ``abort_counts()["by_reason"]`` order
#: (mirrors :meth:`repro.concurrency.base.CCStats.abort_reasons`).
ABORT_REASONS = ("validation_failure", "lock_conflict",
                 "deadlock_avoidance", "wound", "user",
                 "dangerous_structure")


class Telemetry:
    """One database's metrics registry, span tracer and exporters."""

    __slots__ = ("database", "config", "registry", "tracer", "_sample",
                 "_commits", "_aborts", "_commit_hist", "_abort_hist")

    def __init__(self, database: Any, config: TelemetryConfig) -> None:
        self.database = database
        self.config = config
        self.registry = MetricsRegistry()
        self._sample = config.trace_sample
        self.tracer: Tracer | None = (
            Tracer(system=config.trace_system) if self._sample else None)
        registry = self.registry
        self._commits = registry.counter("txn_commits_total")
        self._aborts = registry.counter("txn_aborts_total")
        self._commit_hist = registry.histogram("txn_commit_latency_us")
        self._abort_hist = registry.histogram("txn_abort_latency_us")

    # -- root tracing ---------------------------------------------------

    def trace_root(self, root: Any, now: float) -> TraceHandle | None:
        """Open a trace for a sampled root (``txn_id % sample == 0``;
        deterministic, no RNG) and start its scheduling child span.
        Returns the handle or ``None`` (the common case)."""
        sample = self._sample
        if not sample or root.txn_id % sample:
            return None
        handle = TraceHandle(self.tracer, root.txn_id, now, {
            "procedure": root.procedure,
            "reactor": root.reactor_name,
        })
        handle.open_child("sched", "scheduling", now)
        root.trace = handle
        return handle

    def note_root_done(self, root: Any, committed: bool,
                       reason: str | None, now: float) -> None:
        """The single completion hook: both paths that report a root
        done (the executor's completion, and
        :meth:`~repro.core.database.ReactorDatabase.refuse_root` for a
        root that never ran) land here."""
        latency = now - root.start_time
        if committed:
            self._commits.inc()
            self._commit_hist.observe(latency)
        else:
            self._aborts.inc()
            self._abort_hist.observe(latency)
        trace = root.trace
        if trace is not None:
            trace.close_child("commit", now)
            trace.finish(now, {"committed": committed,
                               "reason": reason})
            root.trace = None

    # -- system tracks --------------------------------------------------

    @property
    def system_tracing(self) -> bool:
        """Are per-event system-track spans (log flush epochs,
        replication ships, migration phases) being recorded?"""
        tracer = self.tracer
        return tracer is not None and tracer.system

    def system_span(self, name: str, track: str, tid: int,
                    start: float, end: float,
                    args: dict[str, Any] | None = None) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.system:
            tracer.emit(name, track, tid, start, end, tracer.new_id(),
                        0, args)

    # -- collectors -----------------------------------------------------

    def merged_cc_stats(self) -> Any:
        """CC stats merged across primaries and replica shadows (reads
        ``database.containers`` live, so promotion — which swaps
        containers and merges stats into the target — stays exact)."""
        from repro.concurrency.base import CCStats
        merged = CCStats()
        database = self.database
        for container in database.containers:
            merged.merge(container.concurrency.stats)
        replication = database.replication
        if replication is not None:
            for group in replication.replicas.values():
                for replica in group:
                    merged.merge(replica.concurrency.stats)
        return merged

    def attach_collectors(self) -> None:
        """Register the core collector-backed gauges (CC, storage,
        executors, scheduler).  Called at the end of the database
        build; safe to call again."""
        registry = self.registry
        database = self.database
        merged = self.merged_cc_stats
        registry.gauge_fn("cc_validations_total",
                          lambda: merged().validations)
        registry.gauge_fn("cc_validation_failures_total",
                          lambda: merged().validation_failures)
        for reason in ABORT_REASONS:
            registry.gauge_fn(
                "cc_aborts_total",
                (lambda r=reason: merged().abort_reasons()[r]),
                reason=reason)
        storage = database.storage
        registry.gauge_fn(
            "storage_live_versions",
            lambda: sum(t.live_version_count()
                        for t in database._all_tables()))
        registry.gauge_fn("storage_versions_created_total",
                          lambda: storage.stats.versions_created)
        registry.gauge_fn("storage_versions_gced_total",
                          lambda: storage.stats.versions_gced)
        registry.gauge_fn("storage_snapshot_roots_total",
                          lambda: storage.stats.snapshot_roots)
        registry.gauge_fn("storage_snapshot_reads_total",
                          lambda: storage.stats.snapshot_reads)
        registry.gauge_fn("storage_pinned_snapshots",
                          lambda: len(storage.pinned))
        scheduler = database.scheduler
        registry.gauge_fn("scheduler_events_dispatched_total",
                          lambda: scheduler.events_dispatched)
        registry.gauge_fn("scheduler_pending_events", scheduler.pending)
        for executor in database.executors:
            core = executor.core_id
            registry.gauge_fn("executor_queue_depth",
                              (lambda e=executor: len(e.queue)),
                              core=core)
            registry.gauge_fn("executor_requests_total",
                              (lambda e=executor: e.requests_served),
                              core=core)
            registry.gauge_fn("executor_busy_us",
                              (lambda e=executor: round(e.busy_time, 3)),
                              core=core)

    def register_flusher(self, flusher: Any) -> None:
        """Per-container log-device gauges.  Re-registered when a
        promotion replaces a container's log (same label, new
        flusher)."""
        registry = self.registry
        cid = flusher.container_id

        def field(getter: Callable[[Any], Any]) -> Callable[[], Any]:
            return lambda: getter(flusher)

        registry.gauge_fn("log_fsyncs_total",
                          field(lambda f: f.stats.fsyncs),
                          container=cid)
        registry.gauge_fn("log_records_flushed_total",
                          field(lambda f: f.stats.records_flushed),
                          container=cid)
        registry.gauge_fn("log_bytes_flushed_total",
                          field(lambda f: f.stats.bytes_flushed),
                          container=cid)
        registry.gauge_fn("log_early_flushes_total",
                          field(lambda f: f.stats.early_flushes),
                          container=cid)
        registry.gauge_fn("log_device_busy_us",
                          field(lambda f: round(f.stats.device_busy_us,
                                                3)),
                          container=cid)
        registry.gauge_fn("log_durable_tid",
                          field(lambda f: f.durable_tid),
                          container=cid)
        registry.gauge_fn("log_unflushed_records",
                          field(lambda f: f.unflushed_records()),
                          container=cid)

    def register_durability(self, manager: Any) -> None:
        registry = self.registry
        registry.gauge_fn("durability_acked_commits_total",
                          lambda: manager.acked_count)
        registry.gauge_fn("durability_checkpoints_total",
                          lambda: manager.checkpoints_taken)
        registry.gauge_fn("durability_checkpoint_segments",
                          lambda: len(manager.manifest.segments))
        registry.gauge_fn("durability_records_truncated_total",
                          lambda: manager.records_truncated)

    def register_replication(self, manager: Any) -> None:
        registry = self.registry
        stats = manager.stats
        registry.gauge_fn("replication_records_shipped_total",
                          lambda: stats.records_shipped)
        registry.gauge_fn("replication_records_applied_total",
                          lambda: stats.records_applied)
        registry.gauge_fn("replication_acked_records_total",
                          lambda: stats.acked_records)
        registry.gauge_fn("replication_sync_commit_waits_total",
                          lambda: stats.sync_commit_waits)
        registry.gauge_fn("replication_sync_ack_wait_us",
                          lambda: round(stats.sync_ack_wait_us, 3))
        registry.gauge_fn("replication_max_lag_us",
                          lambda: round(stats.max_lag_us, 3))
        registry.gauge_fn("replication_reads_routed_total",
                          lambda: stats.reads_routed_to_replicas)
        registry.gauge_fn("replication_failover_aborts_total",
                          lambda: stats.failover_aborts)

    def register_migration(self, manager: Any) -> None:
        registry = self.registry
        stats = manager.stats
        registry.gauge_fn("migration_started_total",
                          lambda: stats.started)
        registry.gauge_fn("migration_completed_total",
                          lambda: stats.completed)
        registry.gauge_fn("migration_cancelled_total",
                          lambda: stats.cancelled)
        registry.gauge_fn("migration_rows_copied_total",
                          lambda: stats.rows_copied)
        registry.gauge_fn("migration_roots_parked_total",
                          lambda: stats.roots_parked)
        registry.gauge_fn("migration_subcalls_parked_total",
                          lambda: stats.subcalls_parked)
        registry.gauge_fn("migration_rebalance_checks_total",
                          lambda: stats.rebalance_checks)
        registry.gauge_fn("migration_rebalance_moves_total",
                          lambda: stats.rebalance_moves)

    # -- exports --------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()

    def export_chrome(self) -> dict[str, Any]:
        """Chrome trace-event payload (Perfetto-loadable) with the
        metrics snapshot riding along."""
        return _export.chrome_payload(self)

    def export_chrome_json(self) -> str:
        return _export.to_json(self.export_chrome())

    def bench_summary(self) -> dict[str, Any]:
        """The compact per-measurement block benchmark JSONs embed:
        outcome counts plus the latency/flush/lag percentile
        summaries that have observations."""
        out: dict[str, Any] = {
            "commits": self._commits.value,
            "aborts": self._aborts.value,
        }
        for name, histogram in (
                ("txn_commit_latency_us", self._commit_hist),
                ("txn_abort_latency_us", self._abort_hist)):
            if histogram.count:
                out[name] = histogram.summary()
        for name in ("log_flush_records", "log_flush_bytes",
                     "replication_lag_us"):
            value = self.registry.value(name)
            if isinstance(value, dict) and value.get("count"):
                out[name] = value
        return out


__all__ = ["Telemetry", "ABORT_REASONS"]
