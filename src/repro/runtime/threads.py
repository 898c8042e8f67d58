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
  (``_state_lock``);
* :meth:`ThreadsBackend.guarded` is the one critical section: it runs
  one call after releasing the caller's own container lock and
  acquiring the state lock, then every named participant's container
  lock in sorted order (none for shared bookkeeping alone —
  transaction counters, snapshot pins, telemetry counters).  A commit
  is one such call: it validates, installs, publishes and, when
  answered at once, settles its root.  No thread ever waits for the
  state lock while holding a container lock (the call releases
  first), and participant locks are only acquired under the state
  lock — the classic ordering argument that makes the protocol
  deadlock-free;
* tiny scheduling delays (at most :data:`INLINE_DELAY_US`) execute
  inline on the calling thread with a depth bound — they model CPU
  costs already subsumed by real execution overhead, and keeping them
  off the timer thread keeps the hot path queue-free.  Longer delays
  (group-commit flush intervals, fsync completions, measurement
  warmup marks) go to the timer thread and fire on the client queue.

Hand-off works per *wake-up*, not per callback.  A worker takes
everything queued for it in one acquisition of a plain lock (it swaps
the list out) and runs that burst, taking its container lock per
callback; a callback the worker posts to *its own* queue is appended
to the burst it is running — no lock, no wake-up, FIFO kept — for at
most :data:`MAX_BURST` appends per burst, past which self-posts go
through the queue so another thread's posts are never starved.  A
``put`` wakes the worker only when the worker flagged itself asleep
under the queue lock.  Quiescence is counted without a global lock:
every queue counts what was ``posted`` under its own lock, its worker
alone writes ``done``, and :meth:`ThreadsBackend.pending` reads every
``done`` before any ``posted`` (see there for why that suffices).

The backend sheds nothing: like the sim, it queues every root it is
handed.  Load is bounded at the wire, by the server's ``max_inflight``.

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

#: Callbacks a worker may append to the burst it is running by posting
#: to its own queue; the next self-post goes through the queue, behind
#: whatever other threads posted meanwhile.
MAX_BURST = 64

_CLIENT = -1

_SHUT_DOWN = "threads backend is shut down"


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


#: The handle ``after`` returns for a callback that already ran
#: inline: cancelling it changes nothing, since it is on no queue.
_RAN = _QueueItem(None, ())  # type: ignore[arg-type]


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
            backend._timers_done += 1
            backend._timer_cond.notify()
        backend._wake_run()


class _WorkQueue:
    """One thread's FIFO of posted callbacks, handed over a burst at a
    time.

    ``lock`` guards ``items``, ``posted`` and ``asleep``.  ``wake`` is
    a binary semaphore (a plain lock, held while nobody has to wake
    the worker): the worker flags itself ``asleep`` under ``lock``
    when it finds nothing and then blocks acquiring ``wake``; the one
    ``put`` that finds the flag set clears it and releases ``wake`` —
    so a wake-up is neither lost (flag and emptiness are read under
    one lock) nor doubled (the flag is cleared by the first).

    ``done`` and ``ran`` are written by the worker alone.
    """

    __slots__ = ("items", "lock", "wake", "asleep", "posted", "done",
                 "ran")

    def __init__(self) -> None:
        self.items: list[_QueueItem] = []
        self.lock = threading.Lock()
        self.wake = threading.Lock()
        self.wake.acquire()
        self.asleep = False
        #: Callbacks ever put (under ``lock``).
        self.posted = 0
        #: Of those, how many are finished — run or found cancelled.
        #: Advanced once a burst, after everything the burst's
        #: callbacks posted has been counted on its own queue.
        self.done = 0
        #: Callbacks executed, self-posts included.
        self.ran = 0

    def put(self, item: _QueueItem) -> None:
        with self.lock:
            self.items.append(item)
            self.posted += 1
            if self.asleep:
                self.asleep = False
                self.wake.release()

    def take(self) -> list[_QueueItem] | None:
        """Everything queued, or ``None`` having flagged the worker
        asleep — the caller then blocks on ``wake``."""
        with self.lock:
            burst = self.items
            if not burst:
                self.asleep = True
                return None
            self.items = []
        return burst

    def rouse(self) -> None:
        """Wake the worker without giving it work (shutdown)."""
        with self.lock:
            if self.asleep:
                self.asleep = False
                self.wake.release()


class _ThreadState:
    """What the backend knows about the calling thread, behind one
    ``threading.local`` read."""

    __slots__ = ("cid", "own_lock", "lock_held", "depth", "burst",
                 "room")

    def __init__(self, cid: int, own_lock: Any) -> None:
        #: The queue ``soon`` posts to: the worker's own, the client
        #: queue on any other thread.
        self.cid = cid
        #: A container worker's container lock — the one
        #: :meth:`ThreadsBackend.guarded` releases before waiting for
        #: the state lock.  ``None`` on the client worker (it runs
        #: under the state lock itself) and on threads the backend did
        #: not start.
        self.own_lock = own_lock
        self.lock_held = False
        self.depth = 0
        #: The burst a worker is running, and how many more self-posts
        #: it may take; ``room`` stays 0 on every other thread.
        self.burst: list[_QueueItem] | None = None
        self.room = 0


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


class ThreadsBackend:
    """Wall-clock execution backend: one OS thread per container."""

    name = "threads"
    is_virtual = False
    future_class = ThreadSafeFuture

    def __init__(self) -> None:
        #: The global state lock; held by client-queue callbacks and
        #: by every :meth:`guarded` call.
        self._state_lock = threading.RLock()
        self._origin_ns = time.monotonic_ns()
        self._tls = threading.local()
        self._container_locks: list[threading.RLock] = []
        self._queues: dict[int, _WorkQueue] = {
            _CLIENT: _WorkQueue()}
        self._threads: list[threading.Thread] = []
        # Only run() waits on `_acct`.  It is notified — and only
        # while someone is inside run() — by a worker going idle, a
        # timer cancelled or handed to the client queue, and
        # shutdown(); it also guards `_error`.
        self._acct = threading.Condition(threading.Lock())
        self._error: BaseException | None = None
        self._running = False
        self._stopping = False
        # Timer heap: (deadline_ns, seq, handle), guarded by its own
        # condition — as are the armed / done counts; a dedicated
        # thread sleeps until the head is due.
        self._timer_heap: list[tuple[int, int, _TimerHandle]] = []
        self._timer_cond = threading.Condition(threading.Lock())
        self._timer_seq = 0
        self._timers_armed = 0
        self._timers_done = 0
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
        return sum(queue.ran for queue in self._queues.values())

    def pending(self) -> int:
        """Outstanding scheduled work: queued callbacks plus armed
        timers (a burst's callbacks count until the burst is over)."""
        return self._outstanding(None)

    def _outstanding(self, deadline_ns: int | None) -> int:
        """Work posted and not finished, not counting timers armed for
        later than ``deadline_ns``.

        No lock covers the counters as a whole; the order of the reads
        does.  Every ``done`` is read before any ``posted``, both only
        grow, and a callback's (or fired timer's) ``done`` is written
        after everything it posted was counted, so at the instant
        between the two passes ``done <= posted`` held on the true
        values, the ``done`` read is at most the true one and the
        ``posted`` read at least.  A zero difference therefore means
        the system was idle at that instant and nothing was posted
        since.  The far timers are counted under the timer lock at
        that same instant: each is armed and not done, so a zero left
        over means they are all that is outstanding.
        """
        queues = self._queues.values()
        done = self._timers_done
        for queue in queues:
            done += queue.done
        later = 0
        if deadline_ns is not None:
            with self._timer_cond:
                later = sum(1 for when, __, handle in self._timer_heap
                            if when > deadline_ns
                            and handle.state == "queued")
        posted = self._timers_armed
        for queue in queues:
            posted += queue.posted
        return posted - done - later

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
            thread = threading.Thread(
                target=self._worker_loop,
                args=(cid, self._queues[cid],
                      self._container_locks[cid]),
                name=f"repro-container-{cid}", daemon=True)
            self._threads.append(thread)
        self._threads.append(threading.Thread(
            target=self._worker_loop,
            args=(_CLIENT, self._queues[_CLIENT], self._state_lock),
            name="repro-client", daemon=True))
        self._threads.append(threading.Thread(
            target=self._timer_loop, name="repro-timer", daemon=True))
        for thread in self._threads:
            thread.start()

    def shutdown(self) -> None:
        """Stop every backend thread (idempotent).  Pending work is
        abandoned; call after :meth:`run` has quiesced.  Scheduling on
        a backend that was shut down raises :class:`SimulationError`."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        with self._timer_cond:
            self._timer_cond.notify()
        for queue in self._queues.values():
            queue.rouse()
        self._wake_run()
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
        if self._stopping:
            raise SimulationError(_SHUT_DOWN)
        if delay <= INLINE_DELAY_US:
            # Either ran inline (nothing left to cancel) or was bounced
            # to a queue at the depth bound (its queued item).
            return self.busy(delay, fn, *args) or _RAN
        handle = _TimerHandle(self, fn, args)
        deadline = time.monotonic_ns() + int(delay * 1_000)
        with self._timer_cond:
            self._timers_armed += 1
            self._timer_seq += 1
            heappush(self._timer_heap,
                     (deadline, self._timer_seq, handle))
            self._timer_cond.notify()
        return handle

    def soon(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the calling thread's own context —
        the current container's queue on a worker thread, the client
        queue elsewhere."""
        return self.post(self._thread_state().cid, fn, *args)

    def post(self, container_id: int, fn: Callable[..., Any],
             *args: Any) -> _QueueItem:
        """Enqueue ``fn(*args)`` on ``container_id``'s worker thread
        (``-1``/client for non-container work).  Never blocks."""
        item = _QueueItem(fn, args)
        try:
            state = self._tls.state
        except AttributeError:
            state = self._thread_state()
        if state.room and state.cid == container_id:
            # The worker posting to itself: the item rides the burst
            # being run.  Nothing to count either — the burst is not
            # done before this item is.
            state.room -= 1
            state.burst.append(item)
            return item
        if self._stopping:
            raise SimulationError(_SHUT_DOWN)
        self._queues[container_id].put(item)
        return item

    def busy(self, micros: float, fn: Callable[..., Any],
             *args: Any) -> Any:
        """Continue with ``fn(*args)`` immediately: on real hardware
        the modeled occupancy is subsumed by actual CPU work (the
        caller still accounts the modeled microseconds).  Past
        :data:`MAX_INLINE_DEPTH` the call is posted instead and the
        queued item returned; inline it returns ``None``."""
        try:
            state = self._tls.state
        except AttributeError:
            state = self._thread_state()
        depth = state.depth
        if depth >= MAX_INLINE_DEPTH:
            return self.post(state.cid, fn, *args)
        state.depth = depth + 1
        try:
            fn(*args)
        finally:
            state.depth = depth
        return None

    def _thread_state(self) -> _ThreadState:
        """The calling thread's state; a thread the backend did not
        start (a client, the server's loop) gets one on first use."""
        tls = self._tls
        try:
            return tls.state
        except AttributeError:
            state = tls.state = _ThreadState(_CLIENT, None)
            return state

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

    def guarded(self, container_ids: Iterable[int],
                fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` holding the state lock, then every named
        participant's container lock in sorted container-id order
        (none when no container is named), and return its value.

        The calling worker's own container lock is released first and
        taken back after, so no thread ever waits for the state lock
        while holding a container lock.  Participant locks are only
        taken under the state lock, which one call holds at a time, so
        the per-call sorted order can never interleave into a cycle.
        Every lock is released, and the own lock taken back, even when
        ``fn`` raises.
        """
        try:
            state = self._tls.state
        except AttributeError:
            state = self._thread_state()
        own = state.lock_held
        if own:
            state.own_lock.release()
            state.lock_held = False
        cids = sorted(set(container_ids))
        locks = self._container_locks
        self._state_lock.acquire()
        for cid in cids:
            locks[cid].acquire()
        try:
            return fn(*args)
        finally:
            for cid in reversed(cids):
                locks[cid].release()
            self._state_lock.release()
            if own:
                state.own_lock.acquire()
                state.lock_held = True

    # ------------------------------------------------------------------
    # Quiesce
    # ------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Block until the system quiesces.

        Quiescence means no queued or in-flight callbacks and no armed
        timers (with ``until``: none due at or before ``until`` — the
        same inclusive boundary contract as the sim scheduler; later
        timers stay armed).
        """
        if self._running:
            raise SimulationError("backend run() is not re-entrant")
        if not self._started:
            raise SimulationError(
                "threads backend not attached to a database")
        deadline_ns = None
        if until is not None:
            if until < 0:
                raise SimulationError(
                    f"cannot run until a negative timestamp: {until}")
            deadline_ns = self._origin_ns + int(until * 1_000)
        self._running = True
        try:
            # The idle test runs under `_acct` and so does a worker's
            # notify: a worker that goes idle after the test finds
            # this thread already waiting.  (Should a worker read a
            # stale `_running`, the poll interval bounds the delay.)
            with self._acct:
                while True:
                    if self._stopping:
                        raise SimulationError(_SHUT_DOWN)
                    if self._error is not None:
                        error, self._error = self._error, None
                        raise error
                    if self._outstanding(deadline_ns) == 0:
                        break
                    self._acct.wait(timeout=0.05)
            if deadline_ns is not None:
                remaining = deadline_ns - time.monotonic_ns()
                if remaining > 0:
                    time.sleep(remaining / 1e9)
        finally:
            self._running = False

    def _wake_run(self) -> None:
        if self._running:
            with self._acct:
                self._acct.notify_all()

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def _worker_loop(self, cid: int, queue: _WorkQueue,
                     lock: Any) -> None:
        is_container = cid != _CLIENT
        state = self._tls.state = _ThreadState(
            cid, lock if is_container else None)
        while not self._stopping:
            burst = queue.take()
            if burst is None:
                self._wake_run()
                queue.wake.acquire()
                continue
            taken = len(burst)
            state.burst = burst
            state.room = MAX_BURST
            ran = 0
            # Self-posts grow `burst` while it is iterated; a list
            # iterator yields what was appended.
            for item in burst:
                if item.cancelled:
                    continue
                lock.acquire()
                state.lock_held = is_container
                try:
                    item.fn(*item.args)
                except BaseException as error:  # noqa: BLE001
                    with self._acct:
                        if self._error is None:
                            self._error = error
                finally:
                    state.lock_held = False
                    lock.release()
                ran += 1
            # Asleep, a worker must not keep its last burst alive.
            state.room = 0
            state.burst = burst = item = None
            queue.ran += ran
            queue.done += taken

    def _timer_loop(self) -> None:
        heap = self._timer_heap
        cond = self._timer_cond
        client = self._queues[_CLIENT]
        while True:
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
            # Done only once its callback is counted on the client
            # queue, or run() could see neither.
            client.put(_QueueItem(handle.fn, handle.args))
            with cond:
                self._timers_done += 1
            self._wake_run()


__all__ = [
    "INLINE_DELAY_US",
    "MAX_BURST",
    "MAX_INLINE_DEPTH",
    "ThreadsBackend",
    "gil_enabled",
]
