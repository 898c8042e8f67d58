"""Quiescence on the ``threads`` backend, as a property.

``ThreadsBackend.run()`` decides "nothing is left" from counters no
lock covers as a whole: every queue counts ``posted`` under its own
lock, its worker alone writes ``done``, timers count armed / done
under the timer lock, and ``run()`` reads every ``done`` before any
``posted``.  Read the other way round, a callback that hops to another
queue between the two passes is counted done and not yet posted, and
``run()`` returns while it is still running.

So: random programs on three queues — callbacks that post to any
queue, arm short timers, cancel queued items and armed timers, and
raise — and after every ``run()`` nothing is outstanding, nothing is
in flight (the last statement of every callback has already run:
``run()`` did not return early) and the backend's own counts agree
with what the program did.  So that a hop *does* land between two
reads, the thread inside ``run()`` stalls for a moment at every
counter it reads (``_StallingQueue``): what holds under that schedule
is the ordering argument, not luck.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import threads
from repro.runtime.threads import ThreadsBackend, _WorkQueue

QUEUES = (-1, 0, 1)
#: Microseconds; all beyond ``INLINE_DELAY_US`` so they reach the heap.
SHORT_DELAYS = (30.0, 200.0, 1_000.0)
FAR_DELAY = 60_000_000.0
#: Seconds the ``run()`` caller sleeps before each counter read.
STALL_S = 0.0001


def _node(children):
    op = st.one_of(
        st.tuples(st.just("post"), st.sampled_from(QUEUES), children),
        st.tuples(st.just("timer"), st.sampled_from(SHORT_DELAYS),
                  children),
        st.tuples(st.just("cancelled_post"), children),
        st.tuples(st.just("cancelled_timer"), children),
        st.just(("yield",)),
    )
    return st.tuples(st.lists(op, max_size=3), st.booleans())


#: A callback: ``(ops, raises)``.  It performs its ops in order and
#: then, if ``raises``, raises.
programs = st.lists(
    st.tuples(st.sampled_from(QUEUES),
              st.recursive(st.just(([], False)), _node, max_leaves=20)),
    min_size=1, max_size=4)


def expected(node) -> tuple[int, int, int]:
    """(callbacks that run, ones cancelled before they can, raises)."""
    ops, raises = node
    runs, cancelled, errors = 1, 0, int(raises)
    for op in ops:
        if op[0] in ("post", "timer"):
            r, c, e = expected(op[2])
            runs, cancelled, errors = runs + r, cancelled + c, errors + e
        elif op[0] in ("cancelled_post", "cancelled_timer"):
            cancelled += 1
    return runs, cancelled, errors


class Interpreter:
    def __init__(self, backend: ThreadsBackend) -> None:
        self.backend = backend
        self.started: list[int] = []
        self.finished: list[int] = []
        self.scheduled: list[int] = []
        self.cancelled: list[int] = []

    def callback(self, node) -> None:
        backend = self.backend
        ops, raises = node
        self.started.append(1)
        for op in ops:
            kind = op[0]
            if kind == "yield":
                time.sleep(0)
                continue
            self.scheduled.append(1)
            if kind == "post":
                backend.post(op[1], self.callback, op[2])
            elif kind == "timer":
                backend.after(op[1], self.callback, op[2])
            elif kind == "cancelled_post":
                # To this worker's own queue: it cannot have started
                # before this callback returns, so the cancel is not a
                # race and the count below is exact.
                backend.soon(self.callback, op[1]).cancel()
                self.cancelled.append(1)
            else:
                backend.after(FAR_DELAY, self.callback, op[1]).cancel()
                self.cancelled.append(1)
        self.finished.append(1)
        if raises:
            raise RuntimeError(f"callback {len(self.finished)}")

    def start(self, program) -> None:
        for queue, node in program:
            self.scheduled.append(1)
            self.backend.post(queue, self.callback, node)


def _stalling(name: str) -> property:
    slot = getattr(_WorkQueue, name)

    def read(queue):
        if threading.current_thread() is threading.main_thread():
            _StallingQueue.stalls += 1
            time.sleep(STALL_S)
        return slot.__get__(queue)

    return property(read, slot.__set__)


class _StallingQueue(_WorkQueue):
    """A work queue whose counters take a while to read — for the
    thread inside ``run()`` only; the workers run at full speed."""

    __slots__ = ()
    stalls = 0
    posted = _stalling("posted")
    done = _stalling("done")


@pytest.fixture(scope="module", autouse=True)
def stalling_queues():
    patch = pytest.MonkeyPatch()
    patch.setattr(threads, "_WorkQueue", _StallingQueue)
    try:
        yield
        assert _StallingQueue.stalls > 0  # the hook is still in the path
    finally:
        patch.undo()


def run_collecting_errors(backend: ThreadsBackend, **kwargs) -> list:
    """``run()`` until it returns; the errors it raised on the way."""
    errors = []
    while True:
        try:
            backend.run(**kwargs)
            return errors
        except RuntimeError as error:
            errors.append(error)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_run_returns_exactly_when_nothing_is_left(program):
    runs = cancelled = raises = 0
    for __, node in program:
        r, c, e = expected(node)
        runs, cancelled, raises = runs + r, cancelled + c, raises + e
    backend = ThreadsBackend()
    backend.attach(2)
    try:
        interpreter = Interpreter(backend)
        interpreter.start(program)
        errors = run_collecting_errors(backend)
        # Read before anything else can run: a callback still in
        # flight has started and not finished.
        finished, started = len(interpreter.finished), \
            len(interpreter.started)
        assert finished == started == runs
        assert backend.pending() == 0
        assert len(interpreter.cancelled) == cancelled
        assert started == len(interpreter.scheduled) - cancelled
        assert backend.events_dispatched == runs
        # The first error is raised, and none is raised twice.
        assert (len(errors) >= 1) == (raises >= 1)
        assert len(errors) <= raises
        assert len({id(error) for error in errors}) == len(errors)
        if raises == 1:
            backend.run()  # consumed: a second run() is clean
    finally:
        backend.shutdown()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, st.integers(min_value=0, max_value=3))
def test_run_until_leaves_exactly_the_later_timers_armed(program, far):
    backend = ThreadsBackend()
    backend.attach(2)
    try:
        interpreter = Interpreter(backend)
        handles = [backend.after(FAR_DELAY, interpreter.callback,
                                 ([], False)) for __ in range(far)]
        interpreter.start(program)
        until = backend.now + 20_000.0
        run_collecting_errors(backend, until=until)
        assert backend.now >= until
        assert len(interpreter.finished) == len(interpreter.started)
        until_ns = backend._origin_ns + int(until * 1_000)
        armed = [when for when, __, handle in backend._timer_heap
                 if handle.state == "queued"]
        # Whatever is still armed lies beyond `until` (a short timer
        # armed late may), it is all that is outstanding, and the far
        # timers are among it.
        assert all(when > until_ns for when in armed)
        assert backend.pending() == len(armed) >= far
        assert all(handle.state == "queued" for handle in handles)
        for handle in handles:
            handle.cancel()
        run_collecting_errors(backend)
        assert backend.pending() == 0
        assert len(interpreter.finished) == len(interpreter.started)
    finally:
        backend.shutdown()
