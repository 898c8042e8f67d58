"""The ``db.telemetry`` facade: one object owning the registry and
tracer of a database.

The facade is created *before* the database builds its containers, so
every manager it builds — log flushers, durability, replication,
migration — takes its own counters and gauges from the registry in its
constructor and books them where the work happens; the facade knows
none of them.  The database calls :meth:`Telemetry.attach_collectors`
at the end of ``_build`` for the core surfaces (CC, storage,
executors, scheduler).  Registration is idempotent per name and
labels, so a promoted container's rebuilt log flusher continues its
container's counters.

Hot-path contract: an unsampled root allocates nothing — it carries
``trace = None`` — and the collector gauges (pure pull) cost nothing
until read.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.concurrency.base import ABORT_REASONS, CCStats
from repro.telemetry import export as _export
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceHandle, Tracer

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
            self._commits.value += 1
            self._commit_hist.observe(latency)
        else:
            self._aborts.value += 1
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

    def _cc_stats(self) -> Iterator[CCStats]:
        """Every live CC stats source: primaries, then replica shadows
        (read from ``database.containers`` at each call, so promotion
        — which swaps containers and moves the dead primary's counts
        into the survivor — stays exact)."""
        database = self.database
        for container in database.containers:
            yield container.concurrency.stats
        replication = database.replication
        if replication is not None:
            for group in replication.replicas.values():
                for replica in group:
                    yield replica.concurrency.stats

    def attach_collectors(self) -> None:
        """Register the core collector-backed gauges (CC, storage,
        executors, scheduler).  Called at the end of the database
        build; safe to call again.

        :class:`~repro.concurrency.base.CCStats` and
        :class:`~repro.storage.store.VersionStats` stay plain
        counters read through collectors, unlike the managers' booked
        counters: they belong to the standalone CC and storage engines,
        which unit tests build and read without a database, and a CC
        count is per container, summed here over primaries and replica
        shadows."""
        registry = self.registry
        database = self.database
        sources = self._cc_stats

        def cc_sum(field: str) -> Callable[[], int]:
            return lambda: sum(getattr(stats, field)
                               for stats in sources())

        registry.gauge_fn("cc_validations_total", cc_sum("validations"))
        registry.gauge_fn("cc_validation_failures_total",
                          cc_sum("validation_failures"))
        for reason, field in ABORT_REASONS.items():
            registry.gauge_fn("cc_aborts_total", cc_sum(field),
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
        registry.gauge_fn("storage_read_only_aborts_total",
                          lambda: storage.stats.read_only_aborts)
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

    # -- exports --------------------------------------------------------

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


__all__ = ["Telemetry"]
