"""The races an OCC lock word used to answer, answered without one.

OCC validation takes no locks and makes no insert placeholders: both
backends run a commit's validate + install as one atomic section (one
call to the scheduler's ``guarded``), so a key two transactions insert
is decided by whichever commit enters its ``guarded`` call first, and a
refused commit leaves nothing behind in any table.
"""

from __future__ import annotations

import time

import pytest

from repro.concurrency import coordinator
from repro.concurrency.occ import ConcurrencyManager
from repro.concurrency.tid import EpochManager
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.core.reactor import ReactorType
from repro.formal.audit import attach_recorder, certify_all
from repro.relational.schema import float_col, int_col, make_schema, \
    str_col
from repro.relational.table import Table


def _table() -> Table:
    table = Table(make_schema("t", [int_col("id"), float_col("v")],
                              ["id"]))
    for i in range(5):
        table.load_row({"id": i, "v": float(i)})
    return table


def test_second_inserter_of_a_key_aborts_and_leaves_nothing():
    table = _table()
    manager = ConcurrencyManager(0, EpochManager())
    first = manager.begin_session(1)
    first.insert(table, {"id": 100, "v": 1.0})
    second = manager.begin_session(2)
    second.insert(table, {"id": 100, "v": 2.0})
    second.insert(table, {"id": 101, "v": 2.0})
    assert coordinator.commit([(manager, first)], 1.0).committed

    outcome = coordinator.commit([(manager, second)], 2.0)
    assert not outcome.committed
    assert outcome.reason == \
        "concurrent insert won for key (100,) in 't'"
    assert manager.stats.validation_failures == 1
    assert sorted(table.records) == [(i,) for i in range(5)] + [(100,)]
    assert table.get_record((100,)).value["v"] == 1.0


def test_refused_last_participant_leaves_no_inserted_key():
    epochs = EpochManager()
    managers = [ConcurrencyManager(cid, epochs) for cid in range(3)]
    tables = [_table() for __ in managers]
    participants = []
    for manager, table in zip(managers, tables):
        session = manager.begin_session(1)
        session.insert(table, {"id": 100, "v": 1.0})
        session.update(table, (1,), {"v": 10.0})
        participants.append((manager, session))
    rival = managers[2].begin_session(9)
    rival.insert(tables[2], {"id": 100, "v": -1.0})
    assert coordinator.commit([(managers[2], rival)], 1.0).committed

    outcome = coordinator.commit(participants, 2.0)
    assert not outcome.committed
    assert outcome.reason.startswith("concurrent insert won")
    for cid, table in enumerate(tables):
        keys = [(i,) for i in range(5)] + ([(100,)] if cid == 2 else [])
        assert sorted(table.records) == keys
        assert table.get_record((1,)).value["v"] == 1.0
    assert tables[2].get_record((100,)).value["v"] == -1.0
    assert [m.stats.validation_failures for m in managers] == [0, 0, 1]


SLOT = ReactorType("Slot", lambda: [
    make_schema("claim", [int_col("key"), str_col("owner")], ["key"])])


@SLOT.procedure
def put(ctx, key, owner):
    ctx.insert("claim", {"key": key, "owner": owner})


@SLOT.procedure
def claim(ctx, key, owner, other):
    """Insert ``key`` here and, through a sub-call, at ``other``."""
    ctx.insert("claim", {"key": key, "owner": owner})
    time.sleep(0.001)  # widen the window between insert and commit
    remote = yield ctx.call(other, "put", key, owner)
    yield ctx.get(remote)


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_racing_cross_container_inserters_commit_once(backend):
    database = ReactorDatabase(
        shared_nothing(2, mpl=4, cc_scheme="occ", backend=backend),
        [("slot0", SLOT), ("slot1", SLOT)])
    attach_recorder(database)
    outcomes = []

    def on_done(root, committed, reason, result):
        outcomes.append((committed, reason))

    try:
        for i in range(8):
            here, there = ("slot0", "slot1") if i % 2 else \
                ("slot1", "slot0")
            database.submit(here, "claim", 7, f"root{i}", there,
                            on_done=on_done)
        database.scheduler.run()
        assert len(outcomes) == 8
        assert sum(committed for committed, __ in outcomes) == 1
        # A loser either met the winner's row when it buffered its
        # insert or lost at validation.
        assert all(committed
                   or reason.startswith("concurrent insert won")
                   or "DuplicateKeyError" in reason
                   for committed, reason in outcomes), outcomes
        owners = {row["owner"]
                  for name in ("slot0", "slot1")
                  for row in database.table_rows(name, "claim")}
        assert len(owners) == 1
        for name in ("slot0", "slot1"):
            assert len(database.table_rows(name, "claim")) == 1
        certificate = certify_all(database)
        assert certificate["ok"], certificate["failures"]
    finally:
        database.close()
