"""Epoch-based group commit: the per-container log-flush pipeline.

Redo records are appended to the in-memory :class:`~repro.durability.
wal.RedoLog` at install time, but installation is not durability: a
record survives a crash only once its epoch's batched flush has landed
on the container's log device.  A :class:`LogFlusher` models that
device; the durability manager's publish step hands it each record a
commit appended, once every participant has installed:

* appends join the *open epoch*; the first append of an epoch
  schedules its flush ``flush_interval_us`` later, and accumulating
  ``flush_batch_bytes`` of records flushes the epoch early;
* a flush occupies the log device for ``fsync_cost`` virtual
  microseconds and the device is serial — a container has one log
  disk, so under ``sync`` mode (one single-record epoch per writing
  commit) commits queue on it, which is exactly the contention group
  commit exists to amortize;
* when the flush completes, every record of the epoch becomes durable
  (the durable set is always a *prefix* of the append order — epochs
  flush FIFO through the serial device) and the epoch's ack futures
  resolve, releasing the root transactions the executor parked on
  them.

The executor defers root completion on a per-commit ack future exactly
the way sync replication defers on replica acks; ``async`` mode never
hands out futures (commits acknowledge immediately, flushes trail in
the background), which makes the bare ``enable_durability`` of earlier
revisions — logging with free acknowledgements — the ``async`` point
of the new spectrum.
"""

from __future__ import annotations

from typing import Any

from repro.durability.config import ASYNC, SYNC
from repro.durability.wal import RedoRecord
from repro.runtime.futures import SimFuture
from repro.telemetry.spans import TRACK_LOG


class FlushEpoch:
    """One group-commit epoch: the batch one fsync makes durable."""

    __slots__ = ("seq", "opened_at", "tids", "bytes", "waiters",
                 "event", "closed")

    def __init__(self, seq: int, opened_at: float) -> None:
        self.seq = seq
        self.opened_at = opened_at
        #: Commit TIDs of the epoch's records, in append order.
        self.tids: list[int] = []
        self.bytes = 0
        #: Per-commit ack futures resolved when the flush lands.
        self.waiters: list[SimFuture] = []
        self.event: Any = None
        self.closed = False


class LogFlusher:
    """The flush pipeline of one container's redo log."""

    def __init__(self, container_id: int, scheduler: Any, costs: Any,
                 mode: str, telemetry: Any) -> None:
        self.container_id = container_id
        self.scheduler = scheduler
        self.costs = costs
        self.mode = mode
        #: The database's :class:`~repro.telemetry.facade.Telemetry`:
        #: the ``log_*`` metrics plus ``log:epoch`` spans on the log
        #: track.
        self.telemetry = telemetry
        #: Future type matching the execution backend: thread-safe on
        #: wall-clock backends, the plain single-threaded future on sim.
        self._future_cls = scheduler.future_class
        registry = telemetry.registry
        self._records_hist = registry.histogram("log_flush_records")
        self._bytes_hist = registry.histogram("log_flush_bytes")
        # Per-container series: a flusher rebuilt for the container
        # (promotion) gets the same counters and continues them.
        self._fsyncs = registry.counter(
            "log_fsyncs_total", container=container_id)
        self._records_flushed = registry.counter(
            "log_records_flushed_total", container=container_id)
        self._bytes_flushed = registry.counter(
            "log_bytes_flushed_total", container=container_id)
        self._early_flushes = registry.counter(
            "log_early_flushes_total", container=container_id)
        #: Virtual time the log device spent busy (fsync_cost per
        #: flush).
        self._busy_us = registry.counter(
            "log_device_busy_us", container=container_id)
        registry.gauge_fn("log_durable_tid", lambda: self.durable_tid,
                          container=container_id)
        registry.gauge_fn("log_unflushed_records",
                          self.unflushed_records, container=container_id)
        #: Virtual time the serial log device frees up.
        self.disk_free_at = 0.0
        #: Appended records made durable so far — always a prefix of
        #: the container's append order.
        self.flushed_records = 0
        #: Highest commit TID known durable on this container.
        self.durable_tid = 0
        #: Records appended (published) to this container so far.
        self.appended_records = 0
        self._epoch_seq = 0
        self._open: FlushEpoch | None = None

    # ------------------------------------------------------------------
    # Append intake (from DurabilityManager.publish)
    # ------------------------------------------------------------------

    def on_append(self, record: RedoRecord) -> SimFuture | None:
        """Join ``record`` to an epoch; returns the future its commit
        waits on before acknowledging — resolved when the epoch's
        flush lands — or ``None`` under ``async``, which never
        waits."""
        self.appended_records += 1
        if self.mode == SYNC:
            # Force-at-commit: a single-record epoch flushed now, so
            # each writing commit pays (and queues for) its own fsync.
            epoch = self._new_epoch()
            self._join(epoch, record)
            # The waiter joins before the flush starts: a backend may
            # land a short fsync inline, inside ``_flush_epoch``.
            future = self._waiter(epoch)
            self._flush_epoch(epoch)
            return future
        epoch = self._open
        opened = epoch is None
        if opened:
            epoch = self._open = self._new_epoch()
        self._join(epoch, record)
        future = None if self.mode == ASYNC else self._waiter(epoch)
        if opened:
            # Scheduled after the join and the waiter, for the same
            # reason: a short interval may flush the epoch inline.
            epoch.event = self.scheduler.after(
                self.costs.flush_interval_us, self._flush_epoch, epoch)
        if epoch.bytes >= self.costs.flush_batch_bytes and \
                not epoch.closed:
            # Batch threshold reached: flush early instead of waiting
            # out the interval.
            epoch.event.cancel()
            epoch.event = self.scheduler.soon(self._flush_epoch, epoch)
            epoch.closed = True
            self._early_flushes.value += 1
        return future

    def _waiter(self, epoch: FlushEpoch) -> SimFuture:
        """A future resolved when ``epoch``'s flush lands."""
        future = self._future_cls(
            remote=False, target_reactor=f"log:{self.container_id}")
        epoch.waiters.append(future)
        return future

    def _new_epoch(self) -> FlushEpoch:
        self._epoch_seq += 1
        return FlushEpoch(self._epoch_seq, self.scheduler.now)

    def _join(self, epoch: FlushEpoch, record: RedoRecord) -> None:
        epoch.tids.append(record.commit_tid)
        # RedoRecord.byte_size, without a property call per record.
        epoch.bytes += len(record.sealed)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _flush_epoch(self, epoch: FlushEpoch) -> None:
        if epoch is self._open:
            self._open = None
        epoch.closed = True
        # The event that brought us here holds the epoch in its args.
        epoch.event = None
        # The serial log device: this flush starts when the disk frees.
        start = max(self.scheduler.now, self.disk_free_at)
        done = start + self.costs.fsync_cost
        self.disk_free_at = done
        self._fsyncs.value += 1
        self._busy_us.value += self.costs.fsync_cost
        self.scheduler.at(done, self._epoch_durable, epoch)

    def _epoch_durable(self, epoch: FlushEpoch) -> None:
        self.flushed_records += len(epoch.tids)
        self._records_flushed.value += len(epoch.tids)
        self._bytes_flushed.value += epoch.bytes
        self._records_hist.observe(len(epoch.tids))
        self._bytes_hist.observe(epoch.bytes)
        if self.telemetry.system_tracing:
            # Epoch membership -> flush -> ack as one span on the log
            # track: opened at the first append, closed when the fsync
            # lands and the waiters release.
            self.telemetry.system_span(
                "log:epoch", TRACK_LOG, self.container_id,
                epoch.opened_at, self.scheduler.now,
                {"seq": epoch.seq, "records": len(epoch.tids),
                 "bytes": epoch.bytes,
                 "waiters": len(epoch.waiters)})
        for tid in epoch.tids:
            if tid > self.durable_tid:
                self.durable_tid = tid
        waiters, epoch.waiters = epoch.waiters, []
        for future in waiters:
            future.resolve(epoch.seq)

    def kick(self) -> None:
        """Close and flush the open epoch now (durability barriers:
        migration state copies, explicit flush points in tests)."""
        epoch = self._open
        if epoch is not None and not epoch.closed:
            epoch.event.cancel()
            epoch.event = self.scheduler.soon(self._flush_epoch, epoch)
            epoch.closed = True

    def unflushed_records(self) -> int:
        """Records appended but not yet durable (the crash-loss
        window of the current epoch(s))."""
        return self.appended_records - self.flushed_records

    def stats_dict(self) -> dict[str, Any]:
        fsyncs = self._fsyncs.value
        records = self._records_flushed.value
        return {
            "mode": self.mode,
            "fsyncs": fsyncs,
            "records_flushed": records,
            "bytes_flushed": self._bytes_flushed.value,
            "early_flushes": self._early_flushes.value,
            "records_per_fsync":
                round(records / fsyncs, 3) if fsyncs else 0.0,
            "device_busy_us": self._busy_us.current(),
            "durable_tid": self.durable_tid,
            "unflushed_records": self.unflushed_records(),
        }


__all__ = ["LogFlusher", "FlushEpoch"]
