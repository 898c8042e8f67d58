"""Adversarial redo records, and a record's size as the flusher sees it.

``records()`` draws names and values chosen to break an encoder —
escapes, non-ASCII, lone surrogates, non-finite floats, big ints,
deletes, empty keys; ``test_sealed_log.py`` seals and unseals them.  A
record's size is the length of its sealed bytes
(``RedoRecord.byte_size``); the boundary test holds the group-commit
flusher to that size exactly: a size one byte off moves the early
flush by one append.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro import DurabilityConfig
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.durability.wal import (
    DELETE,
    INSERT,
    UPDATE,
    RedoEntry,
    RedoRecord,
)
from repro.sim.machine import XEON_E3_1276, MachineProfile
from repro.workloads import smallbank as sb

#: Every code point, lone surrogates included, plus the characters
#: JSON escapes, drawn often.
names = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\xe9 \U0001f600'
                    '\ud800\udfff')), max_size=8)

floats = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, 2.2250738585072014e-308, 1e308, -1e308]))

values = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    floats, names)


@st.composite
def records(draw) -> RedoRecord:
    # A few schemas per record, each row drawing its columns from one
    # of them in some order: the same key set twice, in two orders.
    schemas = draw(st.lists(st.lists(names, unique=True, max_size=5),
                            min_size=1, max_size=3))
    entries = []
    for __ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from((INSERT, UPDATE, DELETE)))
        row = None
        if kind != DELETE:
            schema = draw(st.sampled_from(schemas))
            columns = draw(st.permutations(schema))
            row = {column: draw(values) for column in columns}
        pk = tuple(draw(st.lists(values, max_size=3)))
        entries.append(RedoEntry(draw(names), draw(names), kind, pk, row))
    tid = draw(st.integers(min_value=0, max_value=2 ** 64))
    return RedoRecord(tid, tuple(entries))


#: One key set in two orders, the example ``test_sealed_log.py`` adds
#: to what ``records()`` draws.
_FORWARD = RedoEntry("r", "t", UPDATE, ("k",),
                     {"a\xe9": 1.5, 'q"': None, "": True})
_BACKWARD = _FORWARD._replace(row=dict(reversed(_FORWARD.row.items())))


def test_batch_bytes_threshold_is_exact():
    """With records of size ``s`` and ``flush_batch_bytes = k * s``,
    the epoch flushes early at the k-th append, not before or after.
    ``k = s + 1`` makes both directions bite: a size one byte short
    reaches ``k * (s - 1) < k * s`` at the k-th append, one byte long
    reaches ``(k - 1) * (s + 1) >= k * s`` a step early."""
    row = {"cust_id": 0, "balance": -0.0, "note": 'café "\\\n'}
    entry = RedoEntry(sb.reactor_name(0), "checking", UPDATE, (0,), row)
    size = len(RedoRecord(1000, (entry,)).sealed)
    appends = size + 1
    machine = MachineProfile(
        name="xeon-e3-1276", hardware_threads=8,
        costs=replace(XEON_E3_1276.costs,
                      flush_batch_bytes=appends * size))
    database = ReactorDatabase(
        shared_nothing(1, machine=machine,
                       durability=DurabilityConfig(enabled=True,
                                                   mode="group")),
        sb.declarations(2))
    log = database.durability.logs[0]
    flusher = database.durability.flushers[0]
    # TIDs that marshal writes in four bytes: every record is the
    # same size.
    for tid in range(1000, 1000 + appends - 1):
        flusher.on_append(log.append(tid, [entry]))
    early = database.telemetry.registry.counter(
        "log_early_flushes_total", container=0)
    assert early.value == 0
    flusher.on_append(log.append(1000 + appends - 1, [entry]))
    assert early.value == 1
    database.close()
