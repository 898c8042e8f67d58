"""Experiment driver: load, warm up, measure, summarize.

:func:`run_measurement` is the shared engine behind every figure/table
reproduction: it takes a freshly built database plus per-worker
transaction factories, runs warmup + measurement in virtual time, and
returns a :class:`~repro.bench.metrics.RunSummary` (plus raw stats for
specialized analyses like the Figure 6 breakdown).  The closed-loop
machinery drives the database in-process; served databases are
measured open-loop by the end-to-end benchmark instead
(``benchmarks/e2e/harness.py``).

Every measurement also snapshots the database's telemetry summary
(commit/abort latency percentiles from the metrics registry); the
benchmark JSON writer drains :func:`drain_telemetry_summaries` and
embeds the blocks under a top-level ``telemetry`` key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.metrics import RunSummary, summarize
from repro.bench.worker import TxnFactory, Worker, spawn_workers
from repro.core.database import ReactorDatabase
from repro.runtime.transaction import TxnStats

#: Telemetry summaries accumulated across measurements of the current
#: benchmark process, drained by ``benchmarks/_util.emit_json``.
_TELEMETRY_LOG: list[dict] = []


def _note_telemetry(database: ReactorDatabase) -> dict:
    summary = database.telemetry.bench_summary()
    if summary:
        _TELEMETRY_LOG.append(summary)
    return summary


def drain_telemetry_summaries() -> list[dict]:
    """Telemetry summaries of every measurement since the last drain
    (benchmark JSON writers embed them, then the log resets)."""
    drained = list(_TELEMETRY_LOG)
    _TELEMETRY_LOG.clear()
    return drained


@dataclass
class MeasurementResult:
    """Summary plus everything needed for deeper analysis."""

    summary: RunSummary
    raw_stats: list[TxnStats] = field(default_factory=list)
    workers: list[Worker] = field(default_factory=list)
    #: busy time per executor core during the measurement window
    core_busy: dict[int, float] = field(default_factory=dict)
    window_us: float = 0.0
    #: ``database.telemetry.bench_summary()`` at measurement end
    #: (empty when telemetry is disabled).
    telemetry: dict = field(default_factory=dict)
    #: Execution backend that produced the numbers: ``"sim"`` times are
    #: virtual microseconds, ``"threads"`` times are wall-clock.
    backend: str = "sim"

    def utilization(self) -> dict[int, float]:
        """Core utilization in [0, 1] over the measurement window."""
        if not self.window_us:
            return {}
        return {core: busy / self.window_us
                for core, busy in sorted(self.core_busy.items())}


def run_measurement(database: ReactorDatabase, n_workers: int,
                    txn_factory_for: Callable[[int], TxnFactory],
                    warmup_us: float = 20_000.0,
                    measure_us: float = 200_000.0,
                    n_epochs: int = 10,
                    seed: int = 42) -> MeasurementResult:
    """Run a closed-loop measurement on a freshly loaded database.

    Workers issue transactions from virtual time 0; statistics are
    summarized over ``[warmup_us, warmup_us + measure_us)``, split into
    ``n_epochs`` epochs (the paper uses 50 epochs; benchmarks here
    default to fewer for tractable wall-clock times, configurable up).
    """
    scheduler = database.scheduler
    start = scheduler.now
    deadline = start + warmup_us + measure_us
    workers = spawn_workers(database, n_workers, txn_factory_for,
                            deadline, seed=seed)

    busy_before: dict[int, float] = {}

    def snapshot_busy() -> None:
        for executor in database.executors:
            busy_before[executor.core_id] = executor.busy_time

    scheduler.at(start + warmup_us, snapshot_busy)
    # Drain: run until all in-flight transactions complete (workers
    # stop issuing at the deadline, so the event queue empties).
    scheduler.run()

    all_stats: list[TxnStats] = []
    for worker in workers:
        all_stats.extend(worker.stats)
    summary = summarize(all_stats, start + warmup_us, deadline,
                        n_epochs=n_epochs)
    core_busy = {
        executor.core_id:
            executor.busy_time - busy_before.get(executor.core_id, 0.0)
        for executor in database.executors
    }
    return MeasurementResult(
        summary=summary,
        raw_stats=all_stats,
        workers=workers,
        core_busy=core_busy,
        window_us=measure_us,
        telemetry=_note_telemetry(database),
        backend=scheduler.name,
    )


def single_worker_latency(database: ReactorDatabase,
                          txn_factory: TxnFactory,
                          n_txns: int = 200,
                          warmup_txns: int = 20,
                          seed: int = 42) -> MeasurementResult:
    """Latency-oriented measurement: one worker, a fixed transaction
    count (the Section 4.2 single-worker methodology).

    The worker issues ``warmup_txns + n_txns`` transactions; the
    summary covers the completion window of the measured ones.
    """
    remaining = {"count": warmup_txns + n_txns}

    def factory(worker: Worker):
        if remaining["count"] <= 0:
            return None
        remaining["count"] -= 1
        return txn_factory(worker)

    worker = Worker(0, database, factory, deadline=float("inf"),
                    seed=seed)
    worker.start()
    database.scheduler.run()

    stats = worker.stats
    measured = stats[warmup_txns:]
    if not measured:
        raise ValueError("no transactions measured")
    window_start = measured[0].start
    window_end = measured[-1].end + 1e-6
    summary = summarize(measured, window_start, window_end,
                        n_epochs=min(10, max(1, len(measured) // 10)))
    return MeasurementResult(
        summary=summary,
        raw_stats=measured,
        workers=[worker],
        core_busy={e.core_id: e.busy_time for e in database.executors},
        window_us=window_end - window_start,
        telemetry=_note_telemetry(database),
        backend=database.scheduler.name,
    )
