"""A write enters the recorded history where it takes effect.

The recorder notes a read when the session serves it and a write when
the commit installs it.  Recording writes when they were buffered
instead misjudges both ways:

* under OCC a read that ran between a buffered write and its install
  saw the old value, yet was ordered after the write — a false cycle;
* under ``none`` two read-modify-writes that buffered one after the
  other recorded as serial although one of them was lost.

Each case runs two roots on one reactor, on two executors of one
container; the second root is submitted 20 µs after the first.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_everything_without_affinity
from repro.core.reactor import ReactorType
from repro.formal.audit import attach_recorder
from repro.formal.serializability import serialization_order
from repro.relational import int_col, make_schema, str_col

CELLS = ReactorType("Cells", lambda: [
    make_schema("cell", [str_col("name"), int_col("v"), int_col("a"),
                         int_col("b")], ["name"])])


@CELLS.procedure
def bump_both(ctx):
    ctx.update("cell", "x", {"v": 1})
    yield ctx.compute(50.0)
    ctx.update("cell", "y", {"v": 1})
    yield ctx.compute(50.0)


@CELLS.procedure
def read_both(ctx):
    return ctx.lookup("cell", "x")["v"] + ctx.lookup("cell", "y")["v"]


@CELLS.procedure
def increment(ctx, pause):
    ctx.update("cell", "x", {"v": ctx.lookup("cell", "x")["v"] + 1})
    yield ctx.compute(pause)


@CELLS.procedure
def set_column(ctx, column, pause):
    ctx.update("cell", "x", {column: 1})
    yield ctx.compute(pause)


@CELLS.procedure
def insert_z(ctx, value, pause):
    ctx.update("cell", "y", {"v": value})
    ctx.insert("cell", {"name": "z", "v": value, "a": 0, "b": 0})
    yield ctx.compute(pause)


def _race(scheme, first, second, snapshot_reads=False):
    """Run ``first`` at 0 µs and ``second`` at 20 µs; their commit
    flags, the recorder and the database."""
    database = ReactorDatabase(
        shared_everything_without_affinity(
            2, cc_scheme=scheme, snapshot_reads=snapshot_reads),
        [("r", CELLS)])
    database.load("r", "cell", [
        {"name": name, "v": 0, "a": 0, "b": 0} for name in ("x", "y")])
    recorder = attach_recorder(database)
    committed = [None, None]

    def submit(index, spec):
        def on_done(root, ok, reason, result):
            committed[index] = ok
        database.submit("r", spec[0], *spec[1:], on_done=on_done)

    submit(0, first)
    database.scheduler.after(20.0, submit, 1, second)
    database.scheduler.run()
    return committed, recorder, database


def _row(database):
    return database.table_rows("r", "cell")[0]


@pytest.mark.parametrize("snapshot_reads", [False, True])
def test_a_read_before_the_install_is_no_cycle(snapshot_reads):
    """``read_both`` read x and y while ``bump_both`` had them
    buffered: it saw neither write and serializes first."""
    committed, recorder, __ = _race("occ", ("bump_both",),
                                    ("read_both",), snapshot_reads)
    assert committed == [True, True]
    assert recorder.is_serializable()
    assert serialization_order(recorder.history.committed_txns(),
                               recorder.history.conflict_edges()) == [2, 1]


def test_2pl_aborts_the_reader_and_stays_serializable():
    committed, recorder, __ = _race("2pl_nowait", ("bump_both",),
                                    ("read_both",))
    assert committed == [True, False]
    assert recorder.is_serializable()


def test_a_lost_increment_is_not_serializable():
    committed, recorder, database = _race(
        "none", ("increment", 100.0), ("increment", 0.0))
    assert committed == [True, True]
    assert _row(database)["v"] == 1
    assert not recorder.is_serializable()


def test_a_lost_column_is_not_serializable():
    """No lookup: only the ``r`` each update records orders the two."""
    committed, recorder, database = _race(
        "none", ("set_column", "a", 100.0), ("set_column", "b", 0.0))
    assert committed == [True, True]
    assert (_row(database)["a"], _row(database)["b"]) == (1, 0)
    assert not recorder.is_serializable()


def test_writes_are_recorded_at_install_in_install_order():
    __, recorder, __ = _race("occ", ("bump_both",), ("read_both",))
    kinds = [(op.kind, op.txn, op.sub, op.item)
             for op in recorder.history.operations()]
    writes = [entry for entry in kinds if entry[0] == "w"]
    assert writes == [("w", 1, 0, "cell:('x',)"),
                      ("w", 1, 0, "cell:('y',)")]
    # Both writes follow every read, the reader's included.
    assert kinds[-2:] == writes


def test_a_skipped_install_records_no_write():
    """Under ``none`` the slow root's insert of z loses the race and
    is skipped at install; only what was installed is recorded."""
    committed, recorder, database = _race(
        "none", ("insert_z", 1, 100.0), ("insert_z", 2, 0.0))
    assert committed == [True, True]
    rows = {row["name"]: row["v"]
            for row in database.table_rows("r", "cell")}
    assert (rows["y"], rows["z"]) == (1, 2)
    writes = [(op.txn, op.item) for op in recorder.history.operations()
              if op.kind == "w"]
    assert writes == [(2, "cell:('y',)"), (2, "cell:('z',)"),
                      (1, "cell:('y',)")]


def test_an_aborted_root_records_no_write():
    """OCC fails the slow increment at validation: its buffered write
    never took effect, so it is not in the history."""
    committed, recorder, __ = _race(
        "occ", ("increment", 100.0), ("increment", 0.0))
    assert committed == [False, True]
    writers = {op.txn for op in recorder.history.operations()
               if op.kind == "w"}
    assert writers == recorder.history.committed_txns()
