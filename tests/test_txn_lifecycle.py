"""Per-transaction state dies by reference count, not in the collector.

A finished root transaction must leave no reference cycle behind: its
sessions, write intents, read/write-set dicts and key tuples are freed
the moment the last outside reference to the root goes, so the cyclic
collector has nothing to find (and, with no net allocations piling up,
next to nothing to run for).  These tests switch the collector off,
drive seeded workloads — a contended SmallBank mix whose CC aborts and
user aborts both occur, and a tiny TPC-C over a group-commit WAL — on
both execution backends, and then count what ``gc.collect()`` finds.

Before this guard existed every root was a cycle
(``root.sessions -> session.owner -> root``): 15 unreachable objects
per SmallBank transaction and 54 per TPC-C transaction.  The
measurement recipe for a whole run is in ``docs/performance.md``
("Memory lifecycle").
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.client.local import LocalClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.durability.config import DurabilityConfig
from repro.durability.recovery import enable_durability
from repro.experiments.common import tpcc_deployment
from repro.telemetry.facade import Telemetry
from repro.workloads import smallbank as sb
from repro.workloads import tpcc

SB_CUSTOMERS = 8
SB_TXNS = 600
TPCC_TXNS = 240
TPCC_SCALE = tpcc.TpccScale(districts=3, customers_per_district=20,
                            items=50, orders_per_district=10,
                            last_names=5)
#: Roots in flight: each completion submits the next spec.
WINDOW = 8
#: Unreachable objects per transaction the collector may find.
GARBAGE_PER_TXN = 1.0


class _Worker:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng


def _smallbank(backend: str, scheme: str = "occ"):
    """A contended mix: half the traffic on one hot account, plus
    cross-container multi-transfers in every formulation."""
    database = ReactorDatabase(
        shared_nothing(4, mpl=4, cc_scheme=scheme, backend=backend),
        sb.declarations(SB_CUSTOMERS))
    sb.load(database, SB_CUSTOMERS)
    enable_durability(database)  # async: attaches redo logs only
    rng = random.Random("lifecycle/smallbank")
    worker = _Worker(rng)
    next_txn = sb.SmallbankWorkload(
        SB_CUSTOMERS, hotspot_fraction=0.5).next_txn
    specs = []
    for i in range(SB_TXNS):
        if i % 5 == 0:
            src = rng.randrange(SB_CUSTOMERS)
            dsts = [sb.reactor_name((src + k) % SB_CUSTOMERS)
                    for k in (1, 3)]
            specs.append(sb.multi_transfer_spec(
                sb.VARIANTS[(i // 5) % len(sb.VARIANTS)],
                sb.reactor_name(src), dsts, 1.0))
        else:
            specs.append(next_txn(worker))
    return database, specs


def _tpcc(backend: str):
    deployment = tpcc_deployment(
        "shared-nothing-async", 2, mpl=4, cc_scheme="occ",
        durability=DurabilityConfig(enabled=True, mode="group"),
        backend=backend)
    database = ReactorDatabase(deployment, tpcc.declarations(2))
    tpcc.load(database, 2, TPCC_SCALE)
    worker = _Worker(random.Random("lifecycle/tpcc"))
    workload = tpcc.TpccWorkload(n_warehouses=2, scale=TPCC_SCALE,
                                 remote_item_prob=0.2, seed=7)
    factories = [workload.factory_for(w) for w in range(2)]
    specs = [factories[i % 2](worker) for i in range(TPCC_TXNS)]
    return database, specs


def _drive(database: ReactorDatabase, specs: list) -> tuple[list, list]:
    """Closed loop, ``WINDOW`` roots in flight; returns the outcomes
    ``(committed, reason)`` and a weak reference to every root."""
    outcomes: list = []
    roots: list = []
    cursor = iter(specs)

    def submit_next() -> None:
        for reactor, proc, args in cursor:
            root = database.submit(reactor, proc, *args,
                                   on_done=on_done)
            roots.append(weakref.ref(root))
            return

    def on_done(root, committed, reason, result) -> None:
        outcomes.append((committed, reason))
        submit_next()

    for __ in range(WINDOW):
        submit_next()
    database.scheduler.run()
    return outcomes, roots


@pytest.mark.parametrize("backend", ["sim", "threads"])
@pytest.mark.parametrize("build", [_smallbank, _tpcc],
                         ids=["smallbank", "tpcc"])
def test_finished_transactions_leave_no_cyclic_garbage(build, backend):
    database, specs = build(backend)
    try:
        gc.collect()
        gc.disable()
        try:
            outcomes, roots = _drive(database, specs)
            unreachable = gc.collect()
        finally:
            gc.enable()
        if backend == "sim":
            # Seeded and deterministic: every root is answered, and the
            # SmallBank mix exercises all three ways a root can end.
            assert len(outcomes) == len(specs)
            if build is _smallbank:
                by_reason = database.abort_counts()["by_reason"]
                assert by_reason["validation_failure"] > 0
                assert by_reason["user"] > 0
            assert any(committed for committed, __ in outcomes)
        assert len(outcomes) > len(specs) // 2
        assert unreachable <= GARBAGE_PER_TXN * len(outcomes), (
            f"{unreachable / len(outcomes):.1f} unreachable objects "
            "per transaction")
        # Nothing but refcounts freed the roots (the collection above
        # found next to nothing): a worker thread may still hold the
        # last item it ran, nothing else does.
        alive = sum(1 for ref in roots if ref() is not None)
        limit = 0 if backend == "sim" else len(database.containers) + 2
        assert alive <= limit
    finally:
        database.close()


@pytest.mark.parametrize("scheme, reason", [
    ("2pl_nowait", "lock_conflict"), ("2pl_waitdie", "wound")])
def test_aborts_inside_sub_transactions_leave_no_garbage(scheme, reason):
    # 2PL aborts *inside* data operations, so aborts travel through
    # failed futures into waiting frames (and are sometimes swallowed
    # there by the implicit end-of-frame sync): every hop is a chance
    # for a traceback to pin a frame that reaches the abort again.
    database, specs = _smallbank("sim", scheme)
    gc.collect()
    gc.disable()
    try:
        outcomes, roots = _drive(database, specs)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(outcomes) == len(specs)
    assert database.abort_counts()["by_reason"][reason] > 0
    assert unreachable <= GARBAGE_PER_TXN * len(outcomes)
    # Every root is dead: a root that aborts on a sibling's failure
    # first waits for its other sub-transactions, so none of them
    # opens a session on it afterwards and pins it in the lock table.
    assert all(ref() is None for ref in roots)


def test_root_dies_with_its_submission():
    database = ReactorDatabase(
        shared_nothing(2, mpl=4, cc_scheme="occ"),
        sb.declarations(SB_CUSTOMERS))
    sb.load(database, SB_CUSTOMERS)
    client = LocalClient(database)
    roots: list = []
    submit = database.submit

    def tracking_submit(*args, **kwargs):
        root = submit(*args, **kwargs)
        roots.append(weakref.ref(root))
        return root

    database.submit = tracking_submit  # LocalClient drops the root
    gc.disable()
    try:
        cust = sb.reactor_name
        committed = client.submit(cust(0), "deposit_checking", 5.0)
        aborted = client.submit(cust(1), "transact_saving", -1e9)
        transfer = client.submit(*_flat(sb.multi_transfer_spec(
            "fully-async", cust(0), [cust(5)], 1.0)))
        client.drain()
        assert committed.outcome.committed
        assert not aborted.outcome.committed
        assert transfer.outcome.committed
        del committed, aborted, transfer
        assert [ref() for ref in roots] == [None, None, None]
    finally:
        gc.enable()


def _flat(spec):
    reactor, proc, args = spec
    return (reactor, proc, *args)


# ----------------------------------------------------------------------
# What is released at completion must not zero what is read afterwards
# ----------------------------------------------------------------------

def _stats_at_and_after_completion(monkeypatch, database, spec):
    """``make_stats`` / ``total_reads`` / ``total_writes`` read at the
    completion instant (inside the telemetry completion hook) and
    again from ``on_done``, which fires ``transport_delay`` later —
    where clients and ``bench/harness.py`` read them."""
    seen = {}
    note_root_done = Telemetry.note_root_done

    def at_completion(telemetry, root, committed, reason, now):
        seen["at"] = (root.total_reads(), root.total_writes(),
                      root.make_stats(now, committed, reason))
        return note_root_done(telemetry, root, committed, reason, now)

    def on_done(root, committed, reason, result):
        seen["after"] = (
            root.total_reads(), root.total_writes(),
            root.make_stats(seen["at"][2].end, committed, reason))
        seen["sessions"] = len(root.sessions)

    with monkeypatch.context() as patch:
        patch.setattr(Telemetry, "note_root_done", at_completion)
        reactor, proc, args = spec
        database.submit(reactor, proc, *args, on_done=on_done)
        database.scheduler.run()
    return seen


@pytest.mark.parametrize("scheme", ["occ", "2pl_nowait"])
def test_stats_survive_completion(monkeypatch, scheme):
    database = ReactorDatabase(
        shared_nothing(4, mpl=4, cc_scheme=scheme),
        sb.declarations(SB_CUSTOMERS))
    sb.load(database, SB_CUSTOMERS)
    cust = sb.reactor_name

    # A committed multi-container transfer: one debit, two credits.
    seen = _stats_at_and_after_completion(
        monkeypatch, database, sb.multi_transfer_spec(
            "fully-async", cust(0), [cust(3), cust(6)], 1.0))
    reads, writes, stats = seen["after"]
    assert seen["after"] == seen["at"]
    assert stats.committed and stats.containers == seen["sessions"] == 3
    assert (reads, writes) == (stats.reads, stats.writes)
    assert writes == 3 and reads >= 3

    # An aborted root (overdraft): it read before it gave up.
    seen = _stats_at_and_after_completion(
        monkeypatch, database, (cust(1), "transact_saving", (-1e9,)))
    reads, writes, stats = seen["after"]
    assert seen["after"] == seen["at"]
    assert not stats.committed and stats.user_abort
    assert reads == stats.reads >= 1 and writes == stats.writes == 0
