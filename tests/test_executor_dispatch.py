"""An executor dispatches only when it has work.

A transaction executor posts ``_dispatch`` when a request arrives or a
blocked task wakes while its core is free, and when it frees its core
(``_release``) only if a woken task or a queued request is waiting.
So every dispatch that runs finds the core free and takes exactly one
item: a solo root costs one dispatch, and no dispatch runs to find
``queue`` and ``ready`` empty.

On ``threads`` a cross-container ``submit`` appends to the owner's
queue on the caller's thread and then reads ``running``; the owner
clears ``running`` and then reads the queue.  At least one side must
see the other, or the request is never served.  The threads test holds
the owner at its write of ``running`` until the submit has landed —
the interleaving that loses the request when the owner reads the queue
first.
"""

from __future__ import annotations

import threading

import pytest

from repro.client import LocalClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.relational import float_col, make_schema, str_col
from repro.runtime.executor import TransactionExecutor
from test_golden_histories import WINDOW, _smallbank

#: Seconds either side of the forced interleaving waits for the other.
BOUND = 5.0

CELL = ReactorType("DispatchCell", lambda: [
    make_schema("cell", [str_col("name"), float_col("value")],
                ["name"])])


@CELL.procedure
def add(ctx, amount):
    value = ctx.lookup("cell", ctx.my_name())["value"] + amount
    ctx.update("cell", ctx.my_name(), {"value": value})
    return value


@CELL.procedure
def add_remote(ctx, other, amount):
    return (yield ctx.get((yield ctx.call(other, "add", amount))))


def cell_database(backend: str) -> ReactorDatabase:
    database = ReactorDatabase(
        shared_nothing(2, placement=RangePlacement(1), backend=backend),
        [("c0", CELL), ("c1", CELL)])
    for name in ("c0", "c1"):
        database.load(name, "cell", [{"name": name, "value": 0.0}])
    assert [database.reactor(name).container.container_id
            for name in ("c0", "c1")] == [0, 1]
    return database


@pytest.fixture
def dispatches(monkeypatch):
    """Every ``_dispatch`` run, as ``(core free, items waiting)`` on
    entry; and every wake-up of a blocked task."""
    seen: list[tuple[bool, int]] = []
    wakeups: list[int] = []
    dispatch = TransactionExecutor._dispatch
    on_future_ready = TransactionExecutor._on_future_ready

    def recording_dispatch(self):
        seen.append((self.running is None,
                     len(self.queue) + len(self.ready)))
        dispatch(self)

    def recording_wakeup(self, task, future):
        wakeups.append(1)
        on_future_ready(self, task, future)

    monkeypatch.setattr(TransactionExecutor, "_dispatch",
                        recording_dispatch)
    monkeypatch.setattr(TransactionExecutor, "_on_future_ready",
                        recording_wakeup)
    return seen, wakeups


def test_a_solo_root_takes_one_dispatch(dispatches):
    seen, wakeups = dispatches
    database = cell_database("sim")
    events = database.scheduler.events_dispatched
    assert database.run("c0", "add", 1.0) == 1.0
    assert seen == [(True, 1)]
    assert not wakeups
    # The dispatch; the busy time of the wake-up, the procedure and
    # the commit; the answer.  No event finds the executor idle.
    assert database.scheduler.events_dispatched - events == 5


def test_a_remote_call_takes_one_dispatch_per_request_and_wakeup(
        dispatches):
    seen, wakeups = dispatches
    database = cell_database("sim")
    assert database.run("c0", "add_remote", "c1", 2.0) == 2.0
    # The root, its sub-call on c1, and the root woken by the answer.
    assert seen == [(True, 1)] * 3
    assert len(wakeups) == 1


def test_no_dispatch_finds_nothing_to_do_under_contention(dispatches):
    seen, wakeups = dispatches
    # Golden's contended SmallBank mix, cross-container transfers
    # included, closed-loop at golden's window.
    database, specs = _smallbank("occ", 11, recorded=False)
    pending = iter(specs)
    outcomes = []

    def submit_next(*outcome):
        if outcome:
            outcomes.append(outcome[1])
        for reactor, proc, args in pending:
            database.submit(reactor, proc, *args, on_done=submit_next)
            return

    for __ in range(WINDOW):
        submit_next()
    database.scheduler.run()
    assert len(outcomes) == len(specs) and any(outcomes)
    assert all(free and waiting for free, waiting in seen), seen
    # Each dispatch took exactly one item: a request or a wake-up.
    served = sum(executor.requests_served
                 for container in database.containers
                 for executor in container.executors)
    assert len(seen) == served + len(wakeups)
    assert len(wakeups) > 0


def test_a_submit_racing_the_owner_release_is_served(monkeypatch):
    """The owner of ``c1`` finishes a root and clears ``running``
    while ``c0``'s worker submits a sub-call to it: the owner's write
    is held until the submit has appended and read ``running`` (still
    the finished task), so only the owner's read of the queue after
    its write can post the dispatch."""
    database = cell_database("threads")
    owner_thread = "repro-container-1"
    caller_thread = "repro-container-0"
    releasing, submitted = threading.Event(), threading.Event()
    armed = [True]
    slot = TransactionExecutor.running
    submit = TransactionExecutor.submit

    def write_running(executor, task):
        if task is None and armed[0] and \
                threading.current_thread().name == owner_thread:
            armed[0] = False
            releasing.set()
            submitted.wait(BOUND)
        slot.__set__(executor, task)

    def racing_submit(executor, task):
        racing = task.subtxn_id != 0 and \
            threading.current_thread().name == caller_thread
        if racing:
            assert releasing.wait(BOUND)
        submit(executor, task)
        if racing:
            submitted.set()

    monkeypatch.setattr(TransactionExecutor, "running",
                        property(slot.__get__, write_running))
    monkeypatch.setattr(TransactionExecutor, "submit", racing_submit)
    try:
        client = LocalClient(database)
        remote = client.submit("c0", "add_remote", "c1", 2.0)
        local = client.submit("c1", "add", 1.0)
        client.drain()
        assert releasing.is_set() and submitted.is_set()
        assert local.outcome is not None and local.outcome.committed
        assert remote.outcome is not None, "the sub-call was never served"
        assert remote.outcome.committed
        assert remote.outcome.result == 3.0
    finally:
        database.close()
