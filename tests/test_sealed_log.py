"""Sealed redo records: one ``bytes`` object per record, sized by length.

``RedoLog.append`` seals each record once (``RedoRecord.sealed``,
``marshal`` version 2) and the log, ``DurabilityManager.installed`` and
a replica's ``applied_records`` all keep that one object; ``unseal`` is
the way back.  The property holds the round trip on the adversarial
values of ``test_wal_record_size.py``; NaN never equals itself, so
records are compared by ``repr``, which also tells ``-0.0`` from
``0.0`` and ``True`` from ``1``.  The census at the end is why the log
is sealed: a collector pass walks every tracked object, and a sealed
log leaves it none.  The install-path tests hold the commit's own
sealing (value runs built in the install loop, no entry per write)
to the bytes ``RedoRecord(tid, entries)`` writes, to the one
assumption that layout makes (an installed image keeps its schema's
column order), and to its size.
"""

import gc
import marshal
import random
import struct
import sys
from types import SimpleNamespace

from hypothesis import example, given, settings

from repro import DurabilityConfig
from repro.core.database import ReactorDatabase
from repro.durability.wal import (
    DELETE,
    INSERT,
    RedoEntry,
    RedoRecord,
    unseal,
)
from repro.experiments.common import tpcc_deployment
from repro.replication import ReplicationConfig
from repro.workloads import tpcc
from test_wal_record_size import _BACKWARD, _FORWARD, records

_ODD = RedoRecord(2 ** 70, (
    RedoEntry("r\ud800", "t", INSERT, (),
              {"n": float("nan"), "z": -0.0, "big": -2 ** 100,
               "flag": True, "one": 1}),
    RedoEntry("r", "t", DELETE, (2 ** 64, "\udfff"), None),
))


@settings(max_examples=300, deadline=None)
@given(record=records())
@example(record=RedoRecord(7, (_FORWARD, _BACKWARD, _FORWARD)))
@example(record=_ODD)
def test_unseal_inverts_seal(record):
    decoded = unseal(record.sealed)
    assert repr(decoded) == repr(record)
    assert all(type(entry) is RedoEntry for entry in decoded.entries)
    # Re-sealing what was decoded gives the same bytes.
    assert RedoRecord(decoded.commit_tid, decoded.entries).sealed \
        == record.sealed


@settings(max_examples=100, deadline=None)
@given(record=records())
@example(record=_ODD)
def test_byte_size_is_the_sealed_length(record):
    assert record.byte_size == len(record.sealed)
    assert unseal(record.sealed).byte_size == record.byte_size


@settings(max_examples=100, deadline=None)
@given(record=records())
@example(record=RedoRecord(7, (_FORWARD, _BACKWARD, _FORWARD)))
def test_equal_records_from_distinct_objects_seal_alike(record):
    rebuilt = RedoRecord(_copy(record.commit_tid), tuple(
        RedoEntry(*map(_copy, entry)) for entry in record.entries))
    assert repr(rebuilt) == repr(record)
    assert rebuilt.sealed == record.sealed


def _copy(value):
    """An equal value made of new objects where Python makes them (no
    string it returns is interned)."""
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass").decode(
            "utf-8", "surrogatepass")
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):  # every bit, NaN payloads too
        return struct.unpack("d", struct.pack("d", value))[0]
    if isinstance(value, int):
        return int(repr(value))
    if isinstance(value, tuple):
        return tuple(map(_copy, value))
    return {_copy(k): _copy(v) for k, v in value.items()}


def test_sealed_bytes_ignore_sharing_and_interning():
    """The cases version 3 and later encode differently: one dict
    written twice versus two equal dicts, and an interned name versus
    an equal one built at run time."""
    row = {"k": "a", "v": 1.0}
    built = "".join(["cu", "st0"])
    assert built is not sys.intern("cust0")
    shared = RedoRecord(9, (
        RedoEntry(sys.intern("cust0"), "t", INSERT, ("a",), row),
        RedoEntry(sys.intern("cust0"), "t", INSERT, ("a",), row)))
    distinct = RedoRecord(9, (
        RedoEntry(built, "t", INSERT, ("a",), dict(row)),
        RedoEntry("".join(["cu", "st0"]), "t", INSERT, ("a",),
                  dict(row))))
    assert shared == distinct
    assert shared.sealed == distinct.sealed
    # What version 4 would have logged depends on the objects.
    as_v4 = [marshal.dumps((r.commit_tid, tuple(map(tuple, r.entries))),
                           4) for r in (shared, distinct)]
    assert as_v4[0] != as_v4[1]


def _tpcc_slice(replicated=True, roots=120, live=None):
    """A group-commit TPC-C database (replicated, by default) after
    ``roots`` roots; ``live`` collects the records commits publish."""
    scale = tpcc.TpccScale(districts=3, customers_per_district=20,
                           items=50, orders_per_district=10,
                           last_names=5)
    deployment = tpcc_deployment(
        "shared-nothing-async", 2, mpl=4,
        durability=DurabilityConfig(enabled=True, mode="group"),
        replication=ReplicationConfig(replicas_per_container=1,
                                      mode="sync")
        if replicated else None)
    database = ReactorDatabase(deployment, tpcc.declarations(2))
    tpcc.load(database, 2, scale)
    if live is not None:
        publish = database.durability.publish

        def capture(root, records):
            live.extend(record for __, record in records)
            return publish(root, records)

        database.durability.publish = capture
    workload = tpcc.TpccWorkload(n_warehouses=2, scale=scale,
                                 remote_item_prob=0.2, seed=5)
    worker = SimpleNamespace(rng=random.Random("sealed/tpcc"))
    factories = [workload.factory_for(w) for w in range(2)]
    for i in range(roots):
        reactor, proc, args = factories[i % 2](worker)
        database.submit(reactor, proc, *args)
        if i % 8 == 7:
            database.scheduler.run()
    database.scheduler.run()
    return database


def test_install_path_seals_what_entries_seal():
    database = _tpcc_slice(replicated=False)
    installed = [sealed for records in
                 database.durability.installed.values()
                 for sealed in records]
    assert len(installed) > 100
    for sealed in installed:
        decoded = unseal(sealed)
        assert RedoRecord(decoded.commit_tid, decoded.entries).sealed \
            == sealed
    database.close()


def test_installed_images_keep_their_schema_column_order():
    """The one assumption of the value-run layout: ``values`` are read
    in schema column order and rebuilt under the run's column names,
    so an installed image whose keys were in another order would
    decode with its columns permuted."""
    live = []
    database = _tpcc_slice(replicated=False, live=live)
    seen = 0
    for record in live:
        for entry in record.entries:
            if entry.row is not None:
                schema = database.reactor(entry.reactor) \
                    .table(entry.table).schema
                assert tuple(entry.row) == schema.column_names
                seen += 1
    assert seen > 100
    for name in database.reactor_names():
        for table in database.reactor(name).catalog:
            for record in table.all_records():
                if not record.deleted:
                    assert tuple(record.value) == \
                        table.schema.column_names
    database.close()


def test_a_new_order_record_is_at_most_55_percent_of_per_row_dicts():
    """What the value runs save over sealing every image as a dict:
    each column name once per run instead of once per row."""
    live = []
    database = _tpcc_slice(replicated=False, roots=24, live=live)
    (record, *__) = [r for r in live
                     if any(e.table == "order_line" for e in r.entries)]
    as_dicts = marshal.dumps(
        (record.commit_tid, tuple(map(tuple, record.entries))), 2)
    assert len(record.sealed) <= 0.55 * len(as_dicts), \
        (len(record.sealed), len(as_dicts))
    database.close()


def test_no_redo_entry_is_built_on_the_commit_path():
    """Sealing needs no entry per write: an unreplicated, unrecorded
    group-commit run builds none, however it is spelled."""
    made = []
    constructors = {RedoEntry.__new__.__code__,
                    RedoEntry._make.__func__.__code__}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in constructors:
            made.append(frame.f_code)

    sys.setprofile(count)
    try:
        database = _tpcc_slice(replicated=False, roots=64)
    finally:
        sys.setprofile(None)
    commits = database.durability.stats_dict()["acked_commits"]
    assert commits > 40
    assert sum(map(len, database.durability.installed.values())) > 40
    assert len(made) / commits == 0
    database.close()


def test_no_live_record_survives_a_slice():
    def redo_objects():
        return [o for o in gc.get_objects()
                if isinstance(o, (RedoEntry, RedoRecord))]

    gc.collect()
    # Held, so no object made during the slice can reuse their ids.
    before = redo_objects()
    known = {id(o) for o in before}
    database = _tpcc_slice()
    gc.collect()
    gc.collect()
    assert [o for o in redo_objects() if id(o) not in known] == []

    manager = database.durability
    replicas = [r for group in database.replication.replicas.values()
                for r in group]
    held = [*(sealed for log in manager.logs.values()
              for sealed in log.records),
            *(sealed for records in manager.installed.values()
              for sealed in records),
            *(sealed for replica in replicas
              for sealed in replica.applied_records),
            *manager.cross_groups]
    assert held and manager.cross_groups
    assert not any(map(gc.is_tracked, held))
    # One object per record, however many places hold it.
    for cid, records in manager.installed.items():
        log = manager.logs[cid]
        assert all(a is b for a, b in zip(records, log.records))
        for replica in database.replication.replicas[cid]:
            assert replica.applied_records == records
            assert all(a is b for a, b in
                       zip(records, replica.applied_records))
    assert manager.installed_tids == {
        cid: [unseal(sealed).commit_tid for sealed in records]
        for cid, records in manager.installed.items()}
    database.close()
