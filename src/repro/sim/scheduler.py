"""Discrete-event scheduler.

The scheduler is a priority queue of ``(time, sequence, callback)``
entries.  Ties on time are broken by insertion order (the sequence
number), which makes every simulation fully deterministic: the same
inputs always produce the same interleavings, aborts, and latencies.

The scheduler is deliberately minimal: components (executors, workers,
transports) express their behaviour as callbacks that schedule further
callbacks.  Generators/coroutines for transaction logic are layered on
top by :mod:`repro.runtime.executor` — the scheduler itself knows
nothing about transactions.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.runtime.futures import SimFuture
from repro.sim.clock import VirtualClock


class Event:
    """A scheduled callback; cancellable.

    Constructing an event enqueues it: every scheduling entry point
    (``at``/``after``/``soon`` and the ``post``/``busy`` backend
    hooks) is one call that stamps a time plus this constructor, which
    takes the scheduler's next sequence number and pushes itself.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_scheduler")

    def __init__(self, scheduler: "SimScheduler", time: float,
                 fn: Callable[..., Any], args: tuple) -> None:
        seq = scheduler._seq
        scheduler._seq = seq + 1
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Cleared at dispatch: a later cancel() must not touch the
        #: scheduler's live counter again.
        self._scheduler: "SimScheduler | None" = scheduler
        heappush(scheduler._queue, (time, seq, self))
        scheduler._live += 1

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            # Compact the dead heap entry: the tombstone stays queued
            # until popped, but must not pin the callback's closure or
            # arguments (root transactions, sessions, ...) in memory.
            self.fn = None
            self.args = ()
            if self._scheduler is not None:
                self._scheduler._on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.3f}, seq={self.seq}, fn={name})"


class SimScheduler:
    """The event loop driving a simulation run.

    The scheduler doubles as the default *execution backend* (see
    :mod:`repro.runtime.backend`): beyond the event-loop surface
    (``at``/``after``/``soon``/``run``/``pending``) it implements the
    backend hooks — ``post``, ``busy``, ``add_waiter``, ``guarded``
    and ``attach``/``shutdown`` — as exact restatements of the
    pre-backend behaviour, so running through them is byte-identical
    to calling the scheduler directly.  The hooks are trivial here because a simulation is
    single-threaded by construction; the ``threads`` backend
    (:mod:`repro.runtime.threads`) gives them real work to do.
    """

    __slots__ = ("clock", "_queue", "_seq", "_dispatched", "_running",
                 "_live")

    #: Backend identity (see :mod:`repro.runtime.backend`).
    name = "sim"
    #: Timestamps are virtual microseconds, not wall-clock readings.
    is_virtual = True
    #: The serial event loop needs no thread-safe futures.
    future_class = SimFuture

    def __init__(self) -> None:
        self.clock = VirtualClock()
        #: Heap of ``(time, seq, event)`` tuples: seq is unique, so
        #: comparisons resolve on the first two fields at C level and
        #: never reach the event object.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._dispatched = 0
        self._running = False
        #: Live (non-cancelled, not-yet-dispatched) events; kept in
        #: sync on push/pop/cancel so :meth:`pending` is O(1).
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.clock.now

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._dispatched

    def at(self, timestamp: float, fn: Callable[..., Any],
           *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        now = self.clock.now
        if timestamp < now:
            if timestamp < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule in the past: now={now}, "
                    f"requested={timestamp}"
                )
            timestamp = now
        return Event(self, timestamp, fn, args)

    def _on_cancel(self, event: Event) -> None:
        self._live -= 1

    # after/soon (and the post/busy backend hooks below) do not go
    # through at(): ``now + non-negative`` needs none of its
    # past-scheduling checks.

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return Event(self, self.clock.now + delay, fn, args)

    def soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after this event)."""
        return Event(self, self.clock.now, fn, args)

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the queue drains or ``until`` passes.

        Args:
            until: stop once the next event is strictly later than this
                virtual time (the clock is left at ``until``).  Events
                stamped exactly *at* ``until`` — including timestamps
                within the scheduler's 1e-9 float tolerance, e.g. an
                ``after(0.1 + 0.2)`` event against ``until=0.3`` — run
                before the call returns: both backends share this
                quiesce contract, so "ran to ``until``" means every
                event due by then was dispatched.
        """
        if self._running:
            raise SimulationError("scheduler is not re-entrant")
        self._running = True
        try:
            queue = self._queue
            clock = self.clock
            while queue:
                time, __, event = queue[0]
                if event.cancelled:
                    # Already uncounted at cancel(); just drop it.
                    heappop(queue)
                    continue
                # The 1e-9 slack matches at()'s past-scheduling
                # tolerance: an event whose timestamp drifted a float
                # ulp past `until` is still "due at until".
                if until is not None and time > until + 1e-9:
                    break
                heappop(queue)
                self._live -= 1
                # A cancel() arriving after dispatch must not touch the
                # live counter again.
                event._scheduler = None
                if time > clock.now:
                    clock.now = time
                event.fn(*event.args)
                self._dispatched += 1
            if until is not None and clock.now < until:
                clock.advance_to(until)
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained on push/pop/cancel, not a scan of
        the heap (cancelled entries stay queued until popped, so a
        scan would also walk dead events).
        """
        return self._live

    # ------------------------------------------------------------------
    # Execution-backend hooks (see repro.runtime.backend)
    # ------------------------------------------------------------------

    def attach(self, n_containers: int) -> None:
        """Nothing to start: every container shares the one loop."""

    def shutdown(self) -> None:
        """Nothing to stop: the loop owns no thread."""

    def post(self, container_id: int, fn: Callable[..., Any],
             *args: Any) -> Event:
        """Run ``fn(*args)`` on ``container_id``'s execution context.

        In a simulation every container shares the one event loop, so
        this is exactly :meth:`soon` — same timestamp, same sequence
        ordering as the pre-backend code.
        """
        return Event(self, self.clock.now, fn, args)

    def busy(self, micros: float, fn: Callable[..., Any],
             *args: Any) -> Event:
        """Model ``micros`` of executor CPU occupancy, then continue
        with ``fn(*args)`` — a virtual sleep here; real elapsed work
        on a wall-clock backend."""
        if micros < 0:
            raise SimulationError(f"negative delay: {micros}")
        return Event(self, self.clock.now + micros, fn, args)

    def add_waiter(self, future: Any, callback: Callable[..., None],
                   *args: Any, container: int | None = None) -> None:
        """Register a future waiter to run on ``container``'s context.

        Single-threaded simulation: the resolver's event *is* every
        container's context, so this delegates straight to the future.
        The threads backend instead relays the wake-up onto the owning
        container's work queue.
        """
        future.add_waiter(callback, *args)

    def guarded(self, container_ids: Iterable[int],
                fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` as one atomic section over shared database
        bookkeeping and the named participant containers, and return
        its value.  A plain call: one event runs at a time."""
        return fn(*args)
