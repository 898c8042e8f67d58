"""Operation-level serializability audits of real runs.

Attach a :class:`~repro.formal.audit.HistoryRecorder` to a database,
run concurrent contended workloads under every deployment, and verify
the recorded history is conflict-serializable (and that its witness
serial order is consistent with commit TIDs).
"""

import pytest

from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.formal.audit import attach_recorder, detach_recorder
from repro.formal.serializability import serialization_order
from repro.workloads import smallbank as sb
from repro.core.database import ReactorDatabase

N = 8


def _bank(deployment):
    database = ReactorDatabase(deployment, sb.declarations(N))
    sb.load(database, N)
    return database


def _run_contended(database, n_txns=40):
    import random

    rng = random.Random(77)
    tids = {}
    for i in range(n_txns):
        variant = sb.VARIANTS[i % len(sb.VARIANTS)]
        src = sb.reactor_name(rng.randrange(N))
        dsts = []
        while len(dsts) < 2:
            dst = sb.reactor_name(rng.randrange(N))
            if dst != src and dst not in dsts:
                dsts.append(dst)
        reactor, proc, args = sb.multi_transfer_spec(variant, src,
                                                     dsts, 1.0)

        def on_done(root, committed, reason, result):
            if committed:
                tids[root.txn_id] = root.commit_tid

        database.submit(reactor, proc, *args, on_done=on_done)
    database.scheduler.run()
    return tids


DEPLOYMENTS = [
    ("sn", lambda backend: shared_nothing(4, mpl=4, backend=backend)),
    ("se-aff", lambda backend: shared_everything_with_affinity(
        4, backend=backend)),
    ("se-rr", lambda backend: shared_everything_without_affinity(
        4, backend=backend)),
]

#: On ``threads`` reads are recorded on the container workers and
#: installs inside the commit's guarded call, which holds every
#: participant's container lock: a read and an install of one key
#: cannot overlap.
BACKENDS = ["sim", "threads"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,deployment_fn", DEPLOYMENTS)
def test_recorded_history_is_serializable(label, deployment_fn, backend):
    database = _bank(deployment_fn(backend))
    recorder = attach_recorder(database)
    tids = _run_contended(database)
    database.close()
    assert recorder.is_serializable(), (
        f"{label}/{backend}: OCC admitted a non-serializable history")
    assert recorder.history.committed_txns() == set(tids)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,deployment_fn", DEPLOYMENTS)
def test_witness_order_exists_and_covers_committed(label,
                                                   deployment_fn,
                                                   backend):
    database = _bank(deployment_fn(backend))
    recorder = attach_recorder(database)
    tids = _run_contended(database)
    database.close()
    order = serialization_order(recorder.history.committed_txns(),
                                recorder.history.conflict_edges())
    assert order is not None
    assert set(order) == set(tids)


def test_reactor_ids_follow_declared_names():
    """Every declared reactor is numbered at attach, in
    ``reactor_names()`` order, however the run first touches them."""
    database = _bank(shared_nothing(4))
    recorder = attach_recorder(database)
    names = database.reactor_names()
    database.run(names[-1], "balance")
    ops = recorder.history.operations()
    assert ops and {op.reactor for op in ops} == {len(names) - 1}
    assert [recorder._reactor_id(database.reactor(name))
            for name in names] == list(range(len(names)))


def test_recorded_ops_have_subtxn_identities():
    database = _bank(shared_nothing(4))
    recorder = attach_recorder(database)
    reactor, proc, args = sb.multi_transfer_spec(
        "opt", sb.reactor_name(0),
        [sb.reactor_name(1), sb.reactor_name(5)], 1.0)
    database.run(reactor, proc, *args)
    ops = recorder.history.operations()
    assert ops
    # Multiple sub-transactions participated (credits on remote
    # reactors carry sub-transaction ids > 0).
    assert {op.sub for op in ops} != {0}
    # Reads and writes both recorded.
    kinds = {op.kind for op in ops}
    assert kinds == {"r", "w"}


def test_detach_stops_recording():
    database = _bank(shared_nothing(4))
    recorder = attach_recorder(database)
    database.run(sb.reactor_name(0), "balance")
    recorded = len(recorder.history.events)
    detach_recorder(database)
    database.run(sb.reactor_name(0), "balance")
    assert len(recorder.history.events) == recorded


def test_aborted_transactions_recorded_as_aborts():
    database = _bank(shared_nothing(4))
    recorder = attach_recorder(database)
    from repro.errors import TransactionAbort

    with pytest.raises(TransactionAbort):
        database.run(sb.reactor_name(0), "transact_saving",
                     -sb.INITIAL_BALANCE * 10)
    assert recorder.history.committed_txns() == set()
    assert recorder.history.txns()  # the abort event exists
