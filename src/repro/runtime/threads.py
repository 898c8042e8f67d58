"""The ``threads`` execution backend: real hardware, wall-clock time.

One OS thread per container plus a *client* thread (root completion
callbacks, workload workers, timer expirations) and a *timer* thread
(a heap of wall-clock deadlines).  Timestamps are
``time.monotonic_ns`` readings converted to microseconds since the
backend's construction, so the runtime's cost charges map to real CPU
work instead of virtual sleeps — the modeled microseconds are still
accounted (utilization breakdowns keep working) but never slept.

Threading model (see ``docs/backends.md`` for the full argument):

* every callback posted to a container runs on that container's one
  worker thread, under that container's re-entrant lock — all data
  operations on a reactor therefore run serialized on its container's
  thread, mirroring the paper's "one executor pins one core";
* client-queue callbacks run under the backend's global *state* lock
  (``self.lock``), which also guards shared database bookkeeping
  (transaction counters, snapshot pins, telemetry counters) via
  :meth:`state_guard`;
* a cross-container commit/abort takes :meth:`commit_guard`: release
  the caller's own container lock, acquire the state lock, then every
  participant's container lock in sorted order.  No thread ever waits
  for the state lock while holding a container lock (the guards
  release first), and participant locks are only acquired under the
  state lock — the classic ordering argument that makes the protocol
  deadlock-free;
* tiny scheduling delays (at most :data:`INLINE_DELAY_US`) execute
  inline on the calling thread with a depth bound — they model CPU
  costs already subsumed by real execution overhead, and keeping them
  off the timer thread keeps the hot path queue-free.  Longer delays
  (group-commit flush intervals, fsync completions, measurement
  warmup marks) go to the timer thread and fire on the client queue.

Work queues are bounded at *root admission*: :meth:`admit_root`
refuses new root transactions when an executor's backlog exceeds
``root_admission_bound`` (load shedding, counted in ``shed_roots``).
Shedding only roots — never internal continuations — keeps memory
bounded without ever wedging an in-flight commit.

Free threading: under a free-threaded build (PEP 703, ``3.13t``)
container threads execute truly in parallel and wall-clock throughput
scales with container count.  Under the GIL the backend is correct
but serialized — scale-up numbers are report-only there (the bench
meta block records :func:`gil_enabled`).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.runtime.futures import ThreadSafeFuture

#: Delays at or below this many microseconds execute inline on the
#: calling thread instead of arming a wall-clock timer.  Every
#: modeled per-hop cost (Cs=3, Cr=9, client_receive=12, ...) sits
#: below it; every real pipeline timer (fsync=30, flush interval=50)
#: sits above it.
INLINE_DELAY_US = 25.0

#: Inline continuations deeper than this bounce to a queue instead of
#: growing the C stack (a whole transaction can otherwise execute as
#: one recursive inline chain).
MAX_INLINE_DEPTH = 64

_CLIENT = -1


def gil_enabled() -> bool:
    """Is the GIL active in this interpreter?  ``False`` only on a
    free-threaded build running with the GIL disabled."""
    checker = getattr(sys, "_is_gil_enabled", None)
    if checker is None:
        return True
    return bool(checker())


class _QueueItem:
    """One posted callback; cancellable until executed."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        # The worker checks the flag right before invoking; a cancel
        # racing the execution may still run the callback, exactly
        # like a sim Event cancelled from within its own dispatch.
        self.cancelled = True


class _TimerHandle:
    """A wall-clock deadline on the timer heap; cancellable."""

    __slots__ = ("fn", "args", "state", "backend")

    def __init__(self, backend: "ThreadsBackend",
                 fn: Callable[..., Any], args: tuple) -> None:
        self.backend = backend
        self.fn = fn
        self.args = args
        self.state = "queued"

    @property
    def cancelled(self) -> bool:
        return self.state == "cancelled"

    def cancel(self) -> None:
        backend = self.backend
        with backend._timer_cond:
            if self.state != "queued":
                return
            self.state = "cancelled"
            self.fn = None  # type: ignore[assignment]
            self.args = ()
            backend._timer_cond.notify()
        backend._retire()


class _WorkQueue:
    """One thread's FIFO of posted callbacks."""

    __slots__ = ("items", "cond", "max_depth")

    def __init__(self) -> None:
        self.items: deque[Any] = deque()
        self.cond = threading.Condition(threading.Lock())
        self.max_depth = 0

    def put(self, item: Any) -> None:
        with self.cond:
            self.items.append(item)
            depth = len(self.items)
            if depth > self.max_depth:
                self.max_depth = depth
            self.cond.notify()

    def take(self) -> Any:
        with self.cond:
            while not self.items:
                self.cond.wait()
            return self.items.popleft()

    def __len__(self) -> int:
        return len(self.items)


class _Relay:
    """Future-waiter shim: hop the wake-up onto the owner's queue."""

    __slots__ = ("backend", "container", "callback")

    def __init__(self, backend: "ThreadsBackend", container: int,
                 callback: Callable[..., None]) -> None:
        self.backend = backend
        self.container = container
        self.callback = callback

    def __call__(self, *args: Any) -> None:
        self.backend.post(self.container, self.callback, *args)


class _Stop:
    pass


_STOP = _Stop()


class ThreadsBackend:
    """Wall-clock execution backend: one OS thread per container."""

    name = "threads"
    is_virtual = False
    future_class = ThreadSafeFuture

    def __init__(self, root_admission_bound: int = 10_000) -> None:
        #: The global state lock; guard for client-queue callbacks and
        #: :meth:`state_guard` / :meth:`commit_guard` critical regions.
        self.lock = threading.RLock()
        #: Refuse new roots when an executor's backlog exceeds this.
        self.root_admission_bound = root_admission_bound
        #: Roots refused by :meth:`admit_root` (load shedding).
        self.shed_roots = 0
        self._origin_ns = time.monotonic_ns()
        self._tls = threading.local()
        self._container_locks: list[threading.RLock] = []
        self._queues: dict[int, _WorkQueue] = {
            _CLIENT: _WorkQueue()}
        self._threads: list[threading.Thread] = []
        self._busy_ns: dict[int, int] = {_CLIENT: 0}
        # Quiesce accounting: one unit per queued callback or armed
        # timer, retired after execution/cancellation.  `_acct` is a
        # leaf lock — never held while acquiring any other.
        self._acct = threading.Condition(threading.Lock())
        self._outstanding = 0
        self._dispatched = 0
        self._error: BaseException | None = None
        self._running = False
        self._stopping = False
        # Timer heap: (deadline_ns, seq, handle), guarded by its own
        # condition; a dedicated thread sleeps until the head is due.
        self._timer_heap: list[tuple[int, int, _TimerHandle]] = []
        self._timer_cond = threading.Condition(threading.Lock())
        self._timer_seq = 0
        self._started = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall-clock microseconds since backend construction."""
        return (time.monotonic_ns() - self._origin_ns) / 1_000.0

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def pending(self) -> int:
        """Outstanding scheduled work: queued callbacks plus armed
        timers (in-flight callbacks count until they finish)."""
        return self._outstanding

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, n_containers: int) -> None:
        """Start the per-container worker threads plus the client and
        timer threads; called once by ``ReactorDatabase._build``."""
        if self._started:
            raise SimulationError("threads backend already attached")
        self._started = True
        for cid in range(n_containers):
            self._container_locks.append(threading.RLock())
            self._queues[cid] = _WorkQueue()
            self._busy_ns[cid] = 0
            thread = threading.Thread(
                target=self._worker_loop,
                args=(cid, self._queues[cid],
                      self._container_locks[cid]),
                name=f"repro-container-{cid}", daemon=True)
            self._threads.append(thread)
        self._threads.append(threading.Thread(
            target=self._worker_loop,
            args=(_CLIENT, self._queues[_CLIENT], self.lock),
            name="repro-client", daemon=True))
        self._threads.append(threading.Thread(
            target=self._timer_loop, name="repro-timer", daemon=True))
        for thread in self._threads:
            thread.start()

    def shutdown(self) -> None:
        """Stop every backend thread (idempotent).  Pending work is
        abandoned; call after :meth:`run` has quiesced."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        with self._timer_cond:
            self._timer_cond.notify()
        for queue in self._queues.values():
            queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Scheduling surface (the SimScheduler-compatible event-loop API)
    # ------------------------------------------------------------------

    def at(self, timestamp: float, fn: Callable[..., Any],
           *args: Any) -> Any:
        """Schedule ``fn(*args)`` at an absolute wall timestamp
        (microseconds on this backend's clock).  The clock runs on
        while the caller computes: one it has passed by then (a log
        flush priced from a ``now`` read a thread switch ago) is due."""
        return self.after(max(timestamp - self.now, 0.0), fn, *args)

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> Any:
        if delay < -1e-9:
            raise SimulationError(f"negative delay: {delay}")
        if delay <= INLINE_DELAY_US:
            return self._inline(fn, args)
        handle = _TimerHandle(self, fn, args)
        deadline = time.monotonic_ns() + int(delay * 1_000)
        self._admit()
        with self._timer_cond:
            self._timer_seq += 1
            heappush(self._timer_heap,
                     (deadline, self._timer_seq, handle))
            self._timer_cond.notify()
        return handle

    def soon(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the calling thread's own context —
        the current container's queue on a worker thread, the client
        queue elsewhere."""
        return self.post(getattr(self._tls, "container_id", _CLIENT),
                         fn, *args)

    def post(self, container_id: int, fn: Callable[..., Any],
             *args: Any) -> _QueueItem:
        """Enqueue ``fn(*args)`` on ``container_id``'s worker thread
        (``-1``/client for non-container work).  Never blocks."""
        item = _QueueItem(fn, args)
        self._admit()
        self._queues[container_id].put(item)
        return item

    def busy(self, micros: float, fn: Callable[..., Any],
             *args: Any) -> Any:
        """Continue with ``fn(*args)`` immediately: on real hardware
        the modeled occupancy is subsumed by actual CPU work (the
        caller still accounts the modeled microseconds)."""
        return self._inline(fn, args)

    def _inline(self, fn: Callable[..., Any], args: tuple) -> None:
        tls = self._tls
        depth = getattr(tls, "depth", 0)
        if depth >= MAX_INLINE_DEPTH:
            self.post(getattr(tls, "container_id", _CLIENT),
                      fn, *args)
            return None
        tls.depth = depth + 1
        try:
            fn(*args)
        finally:
            tls.depth = depth
        return None

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def add_waiter(self, future: Any, callback: Callable[..., None],
                   *args: Any, container: int | None = None) -> None:
        """Register a waiter whose wake-up is relayed onto the owning
        container's queue — the resolver may be any thread, but the
        callback mutates executor state that belongs to one thread."""
        target = _CLIENT if container is None else container
        future.add_waiter(_Relay(self, target, callback), *args)

    def state_guard(self) -> Any:
        return _StateGuard(self)

    def commit_guard(self, container_ids: Iterable[int]) -> Any:
        return _CommitGuard(self, sorted(set(container_ids)))

    def admit_root(self, executor: Any) -> bool:
        """Bounded intake: may this executor accept another root?"""
        if len(executor.queue) + len(executor.ready) \
                < self.root_admission_bound:
            return True
        self.shed_roots += 1
        return False

    # ------------------------------------------------------------------
    # Quiesce
    # ------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Block until the system quiesces.

        Quiescence means no queued or in-flight callbacks and no armed
        timers (with ``until``: none due at or before ``until`` — the
        same inclusive boundary contract as the sim scheduler; later
        timers stay armed).  ``max_events`` is accepted for interface
        compatibility but unenforced — wall-clock runs are bounded by
        real time, not event counts.
        """
        if self._running:
            raise SimulationError("backend run() is not re-entrant")
        if not self._started:
            raise SimulationError(
                "threads backend not attached to a database")
        self._running = True
        try:
            deadline_ns = None
            if until is not None:
                self._origin_check(until)
                deadline_ns = self._origin_ns + int(until * 1_000)
            while True:
                with self._acct:
                    if self._error is not None:
                        error, self._error = self._error, None
                        raise error
                    if self._outstanding == 0:
                        break
                    if deadline_ns is not None and \
                            self._outstanding == self._timers_after(
                                deadline_ns):
                        break
                    self._acct.wait(timeout=0.05)
            if deadline_ns is not None:
                remaining = deadline_ns - time.monotonic_ns()
                if remaining > 0:
                    time.sleep(remaining / 1e9)
        finally:
            self._running = False

    def _origin_check(self, until: float) -> None:
        if until < 0:
            raise SimulationError(
                f"cannot run until a negative timestamp: {until}")

    def _timers_after(self, deadline_ns: int) -> int:
        """Armed timers strictly beyond ``deadline_ns`` — outstanding
        work that must *not* hold up a bounded ``run(until=...)``."""
        with self._timer_cond:
            return sum(1 for when, __, handle in self._timer_heap
                       if when > deadline_ns
                       and handle.state == "queued")

    def _admit(self) -> None:
        with self._acct:
            self._outstanding += 1

    def _retire(self) -> None:
        with self._acct:
            self._outstanding -= 1
            # Every retirement may complete quiescence — including the
            # timers-only state a bounded run(until=...) waits on.
            self._acct.notify_all()

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def _worker_loop(self, cid: int, queue: _WorkQueue,
                     lock: Any) -> None:
        tls = self._tls
        if cid != _CLIENT:
            tls.container_id = cid
            tls.container_lock = lock
        tls.depth = 0
        busy_ns = self._busy_ns
        while True:
            item = queue.take()
            if item is _STOP:
                return
            if item.cancelled:
                self._retire()
                continue
            start = time.monotonic_ns()
            lock.acquire()
            tls.lock_held = True
            try:
                item.fn(*item.args)
            except BaseException as error:  # noqa: BLE001
                with self._acct:
                    if self._error is None:
                        self._error = error
            finally:
                tls.lock_held = False
                lock.release()
            busy_ns[cid] += time.monotonic_ns() - start
            self._dispatched += 1
            self._retire()

    def _timer_loop(self) -> None:
        heap = self._timer_heap
        cond = self._timer_cond
        while True:
            fire: _TimerHandle | None = None
            with cond:
                if self._stopping:
                    return
                if not heap:
                    cond.wait(timeout=0.5)
                    continue
                deadline, __, handle = heap[0]
                if handle.state == "cancelled":
                    heappop(heap)
                    continue
                wait_ns = deadline - time.monotonic_ns()
                if wait_ns > 0:
                    cond.wait(timeout=wait_ns / 1e9)
                    continue
                heappop(heap)
                handle.state = "fired"
                fire = handle
            # Outside the timer lock: enqueue on the client thread
            # (admits a new unit), then retire the timer's own unit.
            self._queues[_CLIENT].put(
                _QueueItem(fire.fn, fire.args))
            self._admit_transfer()

    def _admit_transfer(self) -> None:
        # A fired timer converts 1:1 into a queued callback; the
        # outstanding count is unchanged but run(until=...) waiters
        # must re-examine the timers-only condition.
        with self._acct:
            self._acct.notify_all()

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def container_busy_us(self) -> dict[int, float]:
        """Measured wall-clock busy time per container thread (the
        client thread reports under id ``-1``); feeds
        :func:`repro.costmodel.calibration.fit_measured_costs`."""
        return {cid: ns / 1_000.0
                for cid, ns in sorted(self._busy_ns.items())}

    def queue_depths(self) -> dict[int, int]:
        """High-water mark of each work queue (diagnostics)."""
        return {cid: queue.max_depth
                for cid, queue in sorted(self._queues.items())}


class _StateGuard:
    """Acquire the backend state lock; release the calling worker's
    own container lock first (re-acquired on exit) so no thread ever
    waits for the state lock while holding a container lock."""

    __slots__ = ("backend", "_released")

    def __init__(self, backend: ThreadsBackend) -> None:
        self.backend = backend
        self._released: Any = None

    def __enter__(self) -> "_StateGuard":
        tls = self.backend._tls
        own = getattr(tls, "container_lock", None)
        if own is not None and getattr(tls, "lock_held", False):
            own.release()
            tls.lock_held = False
            self._released = own
        self.backend.lock.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.backend.lock.release()
        own = self._released
        if own is not None:
            own.acquire()
            self.backend._tls.lock_held = True


class _CommitGuard(_StateGuard):
    """State lock plus every participant's container lock, acquired
    in sorted container-id order.  Only one commit/abort is in flight
    at a time (the state lock is exclusive), so the per-guard sorted
    order can never interleave into a cycle."""

    __slots__ = ("container_ids",)

    def __init__(self, backend: ThreadsBackend,
                 container_ids: list[int]) -> None:
        super().__init__(backend)
        self.container_ids = container_ids

    def __enter__(self) -> "_CommitGuard":
        super().__enter__()
        for cid in self.container_ids:
            self.backend._container_locks[cid].acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        for cid in reversed(self.container_ids):
            self.backend._container_locks[cid].release()
        super().__exit__(*exc)


__all__ = [
    "INLINE_DELAY_US",
    "MAX_INLINE_DEPTH",
    "ThreadsBackend",
    "gil_enabled",
]
