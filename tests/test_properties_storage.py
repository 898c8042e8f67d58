"""Property-based tests on the storage substrate and OCC engine.

Invariants checked on randomized inputs:

* ordered-index ranges and lookups agree with a naive prefix filter
  over three-column keys and bounds of one to three columns;
* an ordered index with chunks of a few entries — so runs cross many
  splits and emptied chunks — agrees with a plain sorted list through
  random inserts, removes and unique violations, in ``range``,
  ``lookup``, ``reverse`` and ``len``;
* a session's predicate scan (random ``And`` / ``Or`` / ``Not`` /
  ``Between`` / ``InSet`` trees, full walk or hash probe, with and
  without the session's own writes) agrees with a naive filter over
  the rows the session sees;
* a session's indexed scan (an ordered primary-key-prefix index, an
  ordered non-prefix index, a hash index; ``reverse`` / ``limit``)
  under its own writes agrees with a naive model in rows, order,
  ``examined`` and the order its reads join the footprint;
* tables and their secondary indexes stay mutually consistent through
  arbitrary insert/update/delete interleavings;
* on a coordinated table, every pinned snapshot's indexed, equality
  and full scans return exactly the rows committed when it was pinned,
  whatever installs and GC sweeps follow, and the chained-key set the
  indexed scans rely on names exactly the records retaining history;
* randomly interleaved OCC sessions either abort or produce a final
  state equal to some serial execution (serializability), and
  committed effects are exactly the write sets of committed sessions.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.concurrency import coordinator
from repro.concurrency.base import CCSession
from repro.concurrency.mvcc import SnapshotSession
from repro.concurrency.occ import ConcurrencyManager
from repro.concurrency.tid import EpochManager
from repro.errors import DuplicateKeyError
from repro.relational.index import OrderedIndex, make_spec
from repro.relational.predicate import (
    ALWAYS,
    Between,
    Comparison,
    InSet,
    Not,
    Or,
    Predicate,
    col,
)
from repro.relational.schema import (
    IndexSpec,
    int_col,
    make_schema,
)
from repro.relational.table import Table
from repro.storage import StorageCoordinator

#: Three-column keys over a small domain, so keys share prefixes
#: (and repeat, under distinct primary keys).
keys = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
#: Bounds of one to three columns: a prefix or the full key.
bounds = st.none() | st.lists(st.integers(0, 3), min_size=1,
                              max_size=3).map(tuple)


def _in_prefix_range(key: tuple, low: tuple | None,
                     high: tuple | None) -> bool:
    """The one prefix rule of ``OrderedIndex.range`` and ``lookup``."""
    return (low is None or key[: len(low)] >= low) and \
        (high is None or key[: len(high)] <= high)


@settings(max_examples=200, deadline=None)
@given(st.lists(keys, max_size=40), bounds, bounds, keys)
@example([(1, 2, 3), (1, 2, 0), (1, 3, 0), (2, 0, 0)],
         (1, 2), (1, 2, 3), (1, 2, 3))
@example([(1, 2, 3), (1, 2, 0), (2, 0, 0)], (2,), (1,), (1, 2, 0))
def test_ordered_index_range_matches_naive_filter(entries, low, high,
                                                  probe):
    """``range`` and ``lookup`` agree with the naive prefix filter:
    full-length and prefix bounds, ``low > high`` (empty), keys that
    share a prefix or repeat.  Pins the ``_AFTER`` upper bound."""
    index = OrderedIndex(make_spec("i", ["a", "b", "c"], ordered=True))
    for i, key in enumerate(entries):
        index.insert(key, (i,))
    got = list(index.range(low, high))
    expected = [pk for __, pk in sorted(
        (key, (i,)) for i, key in enumerate(entries)
        if _in_prefix_range(key, low, high))]
    assert got == expected
    assert list(index.range(low, high, reverse=True)) == expected[::-1]
    for key in (probe, probe[:2], probe[:1]):
        assert index.lookup(key) == {
            (i,) for i, k in enumerate(entries) if k[: len(key)] == key}


class _TinyChunks(OrderedIndex):
    """Splits at four entries: a few dozen inserts cross many chunk
    boundaries."""

    CHUNK = 2


#: (verb, key, pk): inserts over a small key and pk domain, removes of
#: a drawn entry, and ``pop`` — remove the model's ``pk % len``-th
#: entry, so removes hit often.
index_ops = st.lists(st.tuples(
    st.sampled_from(["insert", "insert", "insert", "remove", "pop"]),
    keys, st.integers(0, 5)), max_size=80)


@settings(max_examples=200, deadline=None)
@given(index_ops, st.booleans(),
       st.lists(st.tuples(bounds, bounds), max_size=4), keys)
# A unique key that ends one chunk, inserted again under a larger pk:
# its place is the start of the next chunk.
@example(
    [("insert", (0, 0, k), 0) for k in range(4)]
    + [("insert", (0, 0, 1), 5)], True, [((0, 0, 1), (0, 0, 2))],
    (0, 0, 1))
def test_chunked_ordered_index_matches_a_sorted_list(ops, unique,
                                                     queries, probe):
    """Inserts, removes and unique violations across chunk splits and
    emptied chunks leave the index equal to a plain sorted list of
    ``(key, pk)`` entries, with neighbours checked across chunk
    boundaries."""
    index = _TinyChunks(make_spec("i", ["a", "b", "c"], ordered=True,
                                  unique=unique))
    model: list[tuple] = []
    for verb, key, pk in ops:
        if verb == "pop":
            if not model:
                continue
            entry = model[pk % len(model)]
            verb = "remove"
        else:
            entry = (key, (pk,))
        if verb == "remove":
            index.remove(*entry)
            if entry in model:
                model.remove(entry)
        elif unique and any(k == entry[0] for k, __ in model):
            with pytest.raises(DuplicateKeyError):
                index.insert(*entry)
        elif entry not in model:
            index.insert(*entry)
            model.append(entry)
            model.sort()
        chunks = index._chunks
        assert all(0 < len(chunk) < 2 * index.CHUNK for chunk in chunks)
        assert index._maxes == [chunk[-1] for chunk in chunks]
        assert [e for chunk in chunks for e in chunk] == model
    assert len(index) == len(model)
    for low, high in queries + [(None, None)]:
        expected = [pk for key, pk in model
                    if _in_prefix_range(key, low, high)]
        assert index.range(low, high) == expected
        assert index.range(low, high, reverse=True) == expected[::-1]
    for key in (probe, probe[:2], probe[:1]):
        assert index.lookup(key) == {
            pk for k, pk in model if k[: len(key)] == key}


# Predicate scans through the record manager -------------------------

#: A small value domain, so equality predicates hit rows and the hash
#: probe on ``a`` returns non-empty buckets.
scan_values = st.integers(-3, 3)


@st.composite
def predicates(draw, depth=2) -> Predicate:
    """Random predicate trees over columns ``a``/``b``/``c``: every
    leaf kind (comparison, ``Between``, ``InSet``) under ``And``,
    ``Or`` and ``Not``."""
    if depth == 0 or draw(st.booleans()):
        column = draw(st.sampled_from(("a", "b", "c")))
        kind = draw(st.sampled_from(["cmp", "between", "in"]))
        if kind == "cmp":
            op = draw(st.sampled_from(
                ["==", "!=", "<", "<=", ">", ">="]))
            return Comparison(column, op, draw(scan_values))
        if kind == "between":
            return Between(column, draw(st.integers(-3, 0)),
                           draw(st.integers(0, 3)))
        return InSet(column, draw(st.lists(scan_values, min_size=1,
                                           max_size=3)))
    combo = draw(st.sampled_from(["and", "or", "not"]))
    if combo == "not":
        return Not(draw(predicates(depth=depth - 1)))
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    if combo == "and":
        return left & right
    return Or(left, right)


#: Half the trees are conjoined with ``a == v``, so
#: ``equality_bindings`` binds the hash index on ``a`` and the scan
#: takes the hash-probe path instead of the full walk.
scan_predicates = st.one_of(
    predicates(),
    st.builds(lambda v, p: (col("a") == v) & p, scan_values,
              predicates()))

scan_images = st.fixed_dictionaries(
    {"a": scan_values, "b": scan_values, "c": scan_values})

own_writes = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(0, 11), scan_images),
    max_size=8)


def _scan_table() -> Table:
    schema = make_schema(
        "t", [int_col("id"), int_col("a"), int_col("b"), int_col("c")],
        ["id"],
        [IndexSpec("by_a", ("a",)),
         IndexSpec("by_b", ("b",), ordered=True)])
    return Table(schema)


@pytest.mark.parametrize("overlay", [False, True],
                         ids=["committed", "own-writes"])
@settings(max_examples=150, deadline=None)
@given(scan_predicates, st.lists(scan_images, max_size=10), own_writes)
def test_scan_matches_naive_filter(overlay, predicate, images, writes):
    """``CCSession.scan(table, p)`` returns exactly the rows ``p``
    matches, in primary-key order, as the session sees them: committed
    rows, or (``own-writes``) committed rows under the session's own
    buffered inserts, updates and deletes."""
    table = _scan_table()
    visible: dict[tuple, dict] = {}
    for i, image in enumerate(images):
        row = {"id": i, **image}
        table.load_row(row)
        visible[(i,)] = row
    session = CCSession(1, 0)
    for op, id_, image in writes if overlay else ():
        pk = (id_,)
        if op == "insert" and pk not in visible:
            row = {"id": id_, **image}
            session.insert(table, row)
            visible[pk] = row
        elif op == "update" and pk in visible:
            session.update(table, pk, image)
            visible[pk] = {**visible[pk], **image}
        elif op == "delete" and pk in visible:
            session.delete(table, pk)
            del visible[pk]
    rows = [visible[pk] for pk in sorted(visible)]
    assert session.scan(table, predicate).rows == \
        [row for row in rows if predicate.matches(row)]


def test_scan_sees_own_update_moved_into_probed_key():
    """An own update that moves a row's indexed column into the key or
    range an index scan probes is in the result, although the index
    (which holds committed keys only) does not list it there."""
    table = _scan_table()
    table.load_row({"id": 0, "a": 0, "b": 0, "c": 0})
    table.load_row({"id": 1, "a": 1, "b": 2, "c": 0})
    session = CCSession(1, 0)
    moved = session.update(table, (0,), {"a": 1, "b": 2})
    both = [moved, {"id": 1, "a": 1, "b": 2, "c": 0}]
    assert session.scan(table, col("a") == 1).rows == both
    assert session.scan(table, index="by_a", low=(1,),
                        high=(1,)).rows == both
    assert session.scan(table, index="by_b", low=(1,),
                        high=(3,)).rows == both
    assert session.scan(table, index="by_b", low=(0,),
                        high=(0,)).rows == []


def _range_table() -> Table:
    schema = make_schema(
        "r", [int_col("g"), int_col("id"), int_col("a"), int_col("b"),
              int_col("c")],
        ["g", "id"],
        [IndexSpec("by_g", ("g",), ordered=True),
         IndexSpec("by_ab", ("a", "b"), ordered=True),
         IndexSpec("by_b", ("b",))])
    return Table(schema)


range_images = st.fixed_dictionaries(
    {"a": st.integers(0, 2), "b": st.integers(0, 2),
     "c": st.integers(-1, 1)})
range_pks = st.tuples(st.integers(0, 2), st.integers(0, 3))
range_writes = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              range_pks, range_images),
    max_size=10)


def _range_bounds(width: int):
    bound = st.none() | st.lists(st.integers(0, 2), min_size=1,
                                 max_size=width).map(tuple)
    return st.tuples(bound, bound)


#: index -> (its columns, whether ordered, a strategy of (low, high)).
#: ``by_g`` leads the primary key, so its walk is primary-key order;
#: ``by_ab`` does not; the hash index takes equality only.
RANGE_INDEXES = {
    "by_g": (("g",), True, _range_bounds(1)),
    "by_ab": (("a", "b"), True, _range_bounds(2)),
    "by_b": (("b",), False,
             st.integers(0, 2).map(lambda b: ((b,), (b,)))),
}


@pytest.mark.parametrize("index", sorted(RANGE_INDEXES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       committed=st.dictionaries(range_pks, range_images, max_size=10),
       writes=range_writes,
       predicate=st.sampled_from([ALWAYS, col("c") >= 0]),
       reverse=st.booleans(),
       limit=st.none() | st.integers(0, 3))
def test_indexed_scan_matches_naive_model(index, data, committed, writes,
                                          predicate, reverse, limit):
    """``CCSession.scan(table, index=..., low, high, reverse, limit)``
    under random own inserts, updates and deletes equals a naive
    model in its rows and their order (``(key, pk)``), ``examined``
    (committed candidates plus own rows the probe keeps that are not
    among them) and the footprint: committed candidates the session
    did not write join ``_reads`` in primary-key order."""
    columns, ordered, bound_pairs = RANGE_INDEXES[index]
    low, high = data.draw(bound_pairs)

    def key_of(row):
        return tuple(row[c] for c in columns)

    def probed(row):
        if ordered:
            return _in_prefix_range(key_of(row), low, high)
        return key_of(row) == low

    table = _range_table()
    rows = {pk: {"g": pk[0], "id": pk[1], **image}
            for pk, image in committed.items()}
    for row in rows.values():
        table.load_row(row)
    session = CCSession(1, 0)
    visible = dict(rows)
    written = set()
    for op, pk, image in writes:
        if op == "insert" and pk not in visible:
            visible[pk] = {"g": pk[0], "id": pk[1], **image}
            session.insert(table, visible[pk])
        elif op == "update" and pk in visible:
            session.update(table, pk, image)
            visible[pk] = {**visible[pk], **image}
        elif op == "delete" and pk in visible:
            session.delete(table, pk)
            del visible[pk]
            if pk not in rows:
                written.discard(pk)  # an own insert, withdrawn
                continue
        else:
            continue
        written.add(pk)
    before = [record.key for record in session._reads]

    result = session.scan(table, predicate, index=index, low=low,
                          high=high, reverse=reverse, limit=limit)

    candidates = sorted(pk for pk, row in rows.items() if probed(row))
    kept = sorted((pk for pk, row in visible.items()
                   if probed(row) and predicate.matches(row)),
                  key=lambda pk: (key_of(visible[pk]), pk))
    if reverse:
        kept.reverse()
    assert result.rows == [visible[pk] for pk in kept][:limit]
    own_only = {pk for pk in written
                if pk in visible and probed(visible[pk])
                and predicate.matches(visible[pk])} - set(candidates)
    assert result.examined == len(candidates) + len(own_only)
    assert [record.key for record in session._reads] == before + [
        pk for pk in candidates if pk not in written and pk not in before]


def _indexed_table() -> Table:
    schema = make_schema(
        "t", [int_col("id"), int_col("grp"), int_col("v")], ["id"],
        [IndexSpec("by_grp", ("grp",)),
         IndexSpec("by_v", ("v",), ordered=True)])
    return Table(schema)


ops = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(0, 9),   # id
              st.integers(0, 3),   # grp
              st.integers(0, 9)),  # v
    max_size=60)


@settings(max_examples=100, deadline=None)
@given(ops)
def test_table_and_indexes_stay_consistent(operations):
    table = _indexed_table()
    shadow: dict[tuple, dict] = {}
    tid = 0
    for op, id_, grp, v in operations:
        tid += 1
        pk = (id_,)
        row = {"id": id_, "grp": grp, "v": v}
        if op == "insert":
            if pk in shadow:
                continue
            table.install_insert(pk, row, tid)
            shadow[pk] = row
        elif op == "update":
            record = table.get_record(pk)
            if record is None:
                continue
            table.install_update(record, row, tid)
            shadow[pk] = row
        else:
            record = table.get_record(pk)
            if record is None:
                continue
            table.install_delete(record, tid)
            del shadow[pk]

    assert {r.key for r in table.iter_records()} == set(shadow)
    by_grp = table.index("by_grp")
    for grp in range(4):
        expected = {pk for pk, row in shadow.items()
                    if row["grp"] == grp}
        assert by_grp.lookup((grp,)) == expected
    by_v = table.index("by_v")
    expected_order = sorted(shadow, key=lambda pk: (shadow[pk]["v"],
                                                    pk))
    assert list(by_v.range(None, None)) == expected_order


# Snapshot scans over the chained-key set -------------------------------

versioned_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "update", "delete",
                               "pin", "unpin", "gc"]),
              st.integers(0, 7),   # id / pin slot
              st.integers(0, 2),   # grp
              st.integers(0, 5)),  # v
    max_size=50)


def _assert_snapshot_scans_match(table: Table, snapshot_tid: int,
                                 expected: dict[tuple, dict]) -> None:
    """Every scan shape of a snapshot session against ``expected``,
    the model's copy of what was committed at ``snapshot_tid``."""
    rows = [expected[pk] for pk in sorted(expected)]
    assert table.rows_as_of(snapshot_tid) == rows
    session = SnapshotSession(1, 0, snapshot_tid)
    assert session.scan(table).rows == rows
    for low, high in ((None, None), ((1,), (3,)), ((4,), None)):
        got = session.scan(table, index="by_v", low=low, high=high)
        in_range = sorted(
            (row for row in rows
             if (low is None or (row["v"],) >= low)
             and (high is None or (row["v"],) <= high)),
            key=lambda row: (row["v"], row["id"]))
        assert got.rows == in_range
        assert session.scan(table, index="by_v", low=low, high=high,
                            reverse=True, limit=2).rows == \
            in_range[::-1][:2]
    for grp in range(3):
        matching = [row for row in rows if row["grp"] == grp]
        assert session.scan(table, index="by_grp", low=(grp,),
                            high=(grp,)).rows == matching
        # No index named: the equality probe finds by_grp itself.
        assert session.scan(table, col("grp") == grp).rows == matching


@settings(max_examples=100, deadline=None)
@given(versioned_ops)
def test_snapshot_scans_see_their_pinned_cut(operations):
    table = _indexed_table()
    storage = StorageCoordinator()
    table.versioning = storage
    shadow: dict[tuple, dict] = {}
    #: pin slot -> (snapshot TID, the model's rows at that TID)
    pinned: dict[int, tuple[int, dict[tuple, dict]]] = {}
    tid = 0
    for op, id_, grp, v in operations:
        pk = (id_,)
        row = {"id": id_, "grp": grp, "v": v}
        if op == "insert" and pk not in shadow:
            tid += 1
            table.install_insert(pk, row, tid)
            shadow[pk] = row
        elif op == "update" and pk in shadow:
            tid += 1  # re-keys both indexed columns
            table.install_update(table.get_record(pk), row, tid)
            shadow[pk] = row
        elif op == "delete" and pk in shadow:
            tid += 1
            table.install_delete(table.get_record(pk), tid)
            del shadow[pk]
        elif op == "pin" and id_ not in pinned:
            storage.pin(id_, tid)
            pinned[id_] = (tid, dict(shadow))
        elif op == "unpin" and id_ in pinned:
            storage.unpin(id_)
            del pinned[id_]
        elif op == "gc":
            table.gc_versions(table.keep_watermark())

        for snapshot_tid, expected in pinned.values():
            _assert_snapshot_scans_match(table, snapshot_tid, expected)
        _assert_snapshot_scans_match(table, tid, shadow)
        chained = [r.key for r in table.iter_chained()]
        assert chained == sorted(
            r.key for r in table.records.values() if r.prev is not None)


# Random concurrent OCC schedules -------------------------------------

txn_programs = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["read", "write"]),
                  st.integers(0, 4)),
        min_size=1, max_size=4),
    min_size=2, max_size=4)


@settings(max_examples=80, deadline=None)
@given(txn_programs, st.randoms(use_true_random=False))
def test_occ_interleavings_are_serializable(programs, rng):
    """Execute sessions with interleaved operations; committed result
    must equal serial execution of the committed subset in commit
    order. Writes are modeled as register assignments of the writing
    transaction's label so final states identify writers."""
    schema = make_schema("t", [int_col("id"), int_col("v")], ["id"])
    table = Table(schema)
    for i in range(5):
        table.load_row({"id": i, "v": -1})
    manager = ConcurrencyManager(0, EpochManager())

    sessions = [manager.begin_session(i + 1)
                for i in range(len(programs))]
    # Build one global random interleaving of all ops.
    schedule = [(t, op) for t, program in enumerate(programs)
                for op in program]
    rng.shuffle(schedule)
    for t, (kind, key) in schedule:
        session = sessions[t]
        if session.finished:
            continue
        if kind == "read":
            session.read(table, (key,))
        else:
            session.update(table, (key,), {"v": t})

    committed: list[tuple[int, int]] = []  # (commit tid, txn index)
    for t, session in enumerate(sessions):
        if session.finished:
            continue
        outcome = coordinator.commit([(manager, session)], float(t + 1))
        if outcome.committed:
            committed.append((outcome.commit_tid, t))
    committed.sort()

    final = {r.key[0]: r.value["v"] for r in table.iter_records()}

    # Serial replay of committed transactions in commit order.
    replay_table = Table(schema)
    for i in range(5):
        replay_table.load_row({"id": i, "v": -1})
    replay_manager = ConcurrencyManager(0, EpochManager())
    for order, (__, t) in enumerate(committed):
        session = replay_manager.begin_session(t + 1)
        for kind, key in programs[t]:
            if kind == "read":
                session.read(replay_table, (key,))
            else:
                session.update(replay_table, (key,), {"v": t})
        outcome = coordinator.commit(
            [(replay_manager, session)], float(order + 1))
        assert outcome.committed  # serial execution cannot conflict

    replay_final = {r.key[0]: r.value["v"]
                    for r in replay_table.iter_records()}
    assert final == replay_final


@settings(max_examples=50, deadline=None)
@given(txn_programs)
def test_serial_occ_never_aborts(programs):
    """Sessions executed and committed one after another always pass
    validation (no false conflicts in the serial case)."""
    schema = make_schema("t", [int_col("id"), int_col("v")], ["id"])
    table = Table(schema)
    for i in range(5):
        table.load_row({"id": i, "v": 0})
    manager = ConcurrencyManager(0, EpochManager())
    for t, program in enumerate(programs):
        session = manager.begin_session(t + 1)
        for kind, key in program:
            if kind == "read":
                session.read(table, (key,))
            else:
                session.update(table, (key,), {"v": t})
        outcome = coordinator.commit([(manager, session)], float(t + 1))
        assert outcome.committed
