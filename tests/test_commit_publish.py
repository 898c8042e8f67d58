"""A commit publishes once, after every participant has installed.

The code that runs after a commit installs — the durability manager's
append sequence, dirty keys and flush epochs, replication's shipping,
the history recorder — is one publish step in the executor's commit,
inside the commit's ``guarded`` call, fed the ``(container id,
RedoRecord)`` pairs ``coordinator.commit`` returns.  The redo log
notifies nobody.

It used to run from listeners on each log, called in the middle of
one participant's install: a fault in container 0's log path then
escaped before container 1 had installed, and a cross-container
commit was half installed (``f0`` = 11.0, ``f1`` = 10.0) on both
backends.  Now both containers install or neither does.  The fault
itself still escapes ``run()``, and publish stops where it raised, so
the durability manager's append sequence holds container 0's record
but not container 1's: containing it is separate work.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.core.reactor import ReactorType
from repro.durability import enable_durability
from repro.errors import TransactionAbort
from repro.relational import float_col, make_schema, str_col
from repro.runtime.threads import INLINE_DELAY_US
from repro.sim.machine import XEON_E3_1276, MachineProfile

CELL = ReactorType("Cell", lambda: [
    make_schema("cell", [str_col("name"), float_col("value")],
                ["name"])])


@CELL.procedure
def add(ctx, amount):
    value = ctx.lookup("cell", ctx.my_name())["value"] + amount
    ctx.update("cell", ctx.my_name(), {"value": value})
    return value


@CELL.procedure
def add_here_and_there(ctx, there, amount):
    """One root, two containers: its own cell, then ``there``'s."""
    value = ctx.lookup("cell", ctx.my_name())["value"] + amount
    ctx.update("cell", ctx.my_name(), {"value": value})
    pending = yield ctx.call(there, "add", amount)
    return (yield ctx.get(pending))


NAMES = ["f0", "f1", "f2"]


class LogDeviceFault(RuntimeError):
    pass


def make_database(backend: str) -> ReactorDatabase:
    database = ReactorDatabase(
        shared_nothing(3, mpl=4, cc_scheme="occ", backend=backend),
        [(name, CELL) for name in NAMES])
    for name in NAMES:
        database.load(name, "cell", [{"name": name, "value": 10.0}])
    enable_durability(database, "group")
    return database


def value_of(database: ReactorDatabase, name: str) -> float:
    (row,) = database.table_rows(name, "cell")
    return row["value"]


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_a_log_fault_installs_both_containers_or_neither(backend):
    database = make_database(backend)
    try:
        def fault(record):
            raise LogDeviceFault("log device gone")

        database.durability.flushers[0].on_append = fault
        with pytest.raises(LogDeviceFault):
            database.run("f1", "add_here_and_there", "f0", 1.0)
        values = (value_of(database, "f0"), value_of(database, "f1"))
        assert values in ((10.0, 10.0), (11.0, 11.0)), values
        durability = database.durability
        logs = durability.logs
        assert len(logs[0]) == len(logs[1]), (len(logs[0]),
                                              len(logs[1]))
        # The remaining gap, until the fault is contained: publish
        # itself stops at the raise.  Container 0's record reached the
        # append sequence, container 1's did not, and no crash site
        # was recorded.
        assert [len(durability.installed[cid]) for cid in (0, 1)] == \
            [1, 0]
        assert not durability.cross_groups
    finally:
        database.close()


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_publish_sees_each_commit_whole(backend):
    """One publish call per writing commit, with every participant's
    record in participant (container) order and the commit's TID."""
    database = make_database(backend)
    try:
        durability = database.durability
        published = []
        publish = durability.publish

        def capture(root, records):
            published.append((root.commit_tid, records))
            return publish(root, records)

        durability.publish = capture
        assert database.run("f1", "add_here_and_there", "f0",
                            1.0) == 11.0
        assert database.run("f2", "add", 2.0) == 12.0
        assert [[cid for cid, __ in records]
                for __, records in published] == [[0, 1], [2]]
        for tid, records in published:
            assert all(record.commit_tid == tid
                       for __, record in records)
        assert [value_of(database, name) for name in NAMES] == \
            [11.0, 11.0, 12.0]
    finally:
        database.close()


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_a_commit_answered_at_once_takes_one_guard(backend, monkeypatch):
    """After ``submit``'s ``guarded`` call, a commit answered at once
    is one ``guarded`` call, over its participants, that settles the
    root.  A deferred commit (a group-commit flush owed) and an abort
    settle in a second one, over no container."""
    database = ReactorDatabase(
        shared_nothing(3, mpl=4, cc_scheme="occ", backend=backend),
        [(name, CELL) for name in NAMES])
    for name in NAMES:
        database.load(name, "cell", [{"name": name, "value": 10.0}])
    entered = []
    guarded = type(database.scheduler).guarded

    def counting(self, container_ids, fn, *args):
        entered.append(sorted(set(container_ids)))
        return guarded(self, container_ids, fn, *args)

    monkeypatch.setattr(type(database.scheduler), "guarded", counting)
    try:
        assert database.run("f1", "add_here_and_there", "f0",
                            1.0) == 11.0
        assert entered == [[], [0, 1]]
        enable_durability(database, "group")
        entered.clear()
        assert database.run("f2", "add", 1.0) == 11.0
        assert entered == [[], [2], []]
        entered.clear()
        with pytest.raises(TransactionAbort):
            database.run("f2", "add", None)  # 11.0 + None raises
        assert entered == [[], [2], []]
    finally:
        database.close()


@pytest.mark.parametrize("mode,interval", [("sync", None), ("group", 10.0)])
def test_an_inline_flush_still_acknowledges(mode, interval):
    """On ``threads`` a delay of at most ``INLINE_DELAY_US`` runs on
    the calling thread, so a cheap fsync (sync) or a short flush
    interval (group) can land inside publish.  The commit's ack must
    still resolve: its waiter joins the epoch before the flush
    starts."""
    costs = replace(XEON_E3_1276.costs, fsync_cost=15.0)
    if interval is not None:
        costs = replace(costs, flush_interval_us=interval)
    assert costs.fsync_cost <= INLINE_DELAY_US
    machine = MachineProfile("cheap-log", XEON_E3_1276.hardware_threads,
                             costs)
    database = ReactorDatabase(
        shared_nothing(3, machine=machine, mpl=4, cc_scheme="occ",
                       backend="threads"),
        [(name, CELL) for name in NAMES])
    try:
        for name in NAMES:
            database.load(name, "cell", [{"name": name, "value": 10.0}])
        durability = enable_durability(database, mode)
        for step in range(1, 4):
            assert database.run("f2", "add", 1.0) == 10.0 + step
            assert database.run("f1", "add_here_and_there", "f0",
                                1.0) == 10.0 + step
        assert durability.acked_sites, "no commit was acknowledged"
        for flusher in durability.flushers.values():
            assert flusher.unflushed_records() == 0
    finally:
        database.close()
