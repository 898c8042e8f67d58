"""ROADMAP 1(a), pinned: ``threads`` + group commit answers everyone.

``backend="threads"`` with ``DurabilityConfig(mode="group")``, served,
16 requests in flight used to leave 8-16 of 8,000 submissions
unanswered in 5 trials of 6: ``LogFlusher._flush_epoch`` prices a
flush from a ``now`` it read a thread switch earlier, the wall clock
had moved on, and ``ThreadsBackend.at`` raised "timestamp in the past"
on the flusher's worker thread — the epoch never became durable and
everyone waiting on it waited for good.  PR 16 made a timestamp the
clock has passed *due*; since then the recipe of
``benchmarks/e2e/README.md`` ("Known gaps") answers every request.
This is that recipe at 2,000 requests with a bound on it, and with the
two things an answer must mean: the commit is in the flushed log, and
no money was made or lost.  The last test holds the flusher's timer
handle on ``threads``: a flush interval bounced to a queue at the
inline depth bound can still be cancelled.
"""

from __future__ import annotations

import random
import threading
from dataclasses import replace

import pytest

from repro.client import TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.durability.config import DurabilityConfig
from repro.durability.group_commit import LogFlusher
from repro.durability.wal import UPDATE, RedoEntry, RedoRecord
from repro.runtime.threads import (
    INLINE_DELAY_US,
    MAX_INLINE_DEPTH,
    ThreadsBackend,
)
from repro.serving import serve_in_thread
from repro.sim.machine import XEON_E3_1276
from repro.telemetry import TelemetryConfig
from repro.telemetry.facade import Telemetry
from repro.workloads import smallbank as sb

CUSTOMERS = 200
REQUESTS = 2_000
WINDOW = 16
#: Seconds for the whole loop (it takes about one).
BOUND = 60.0
#: The money-conserving part of the standard mix; every write is a
#: cross-reactor commit, most of them cross-container — the joint
#: acknowledgement both flushers have to deliver.
MIX = ("balance", "amalgamate", "transfer", "transfer")


class _Worker:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng


def test_every_request_is_answered_and_every_ack_is_durable():
    database = ReactorDatabase(
        shared_nothing(
            2, mpl=8, cc_scheme="occ",
            placement=RangePlacement(CUSTOMERS // 2),
            durability=DurabilityConfig(enabled=True, mode="group"),
            backend="threads"),
        sb.declarations(CUSTOMERS))
    sb.load(database, CUSTOMERS)
    worker = _Worker(random.Random("threads/group-commit"))
    next_txn = sb.SmallbankWorkload(CUSTOMERS, mix=MIX).next_txn
    specs = iter([next_txn(worker) for __ in range(REQUESTS)])
    outcomes: list = []
    all_answered = threading.Event()
    feed_lock = threading.Lock()

    def submit_next() -> None:
        with feed_lock:
            spec = next(specs, None)
        if spec is not None:
            reactor, proc, args = spec
            client.submit(reactor, proc, *args, on_done=on_done)

    def on_done(outcome) -> None:
        outcomes.append(outcome)
        if len(outcomes) == REQUESTS:
            all_answered.set()
        submit_next()

    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    try:
        for __ in range(WINDOW):
            submit_next()
        assert all_answered.wait(BOUND), \
            f"{REQUESTS - len(outcomes)} of {REQUESTS} unanswered"
    finally:
        client.close()
        server.stop()
    try:
        database.scheduler.run()
        assert len(outcomes) == REQUESTS
        assert all(outcome.error_code is None for outcome in outcomes)
        committed = sum(1 for outcome in outcomes if outcome.committed)
        assert committed > REQUESTS // 2
        durability = database.durability
        assert database.telemetry.registry.value(
            "durability_acked_commits_total") == committed
        # Acknowledged means flushed: the record of every commit a
        # client was answered for lies inside its log's durable prefix.
        assert durability.acked_sites
        for cid, index in durability.acked_sites:
            assert index < durability.flushers[cid].flushed_records
        # To a cent in four million: the amounts are floats.
        assert sb.total_money(database, CUSTOMERS) == pytest.approx(
            CUSTOMERS * 2 * sb.INITIAL_BALANCE, abs=0.01)
    finally:
        database.close()


def test_a_flush_timer_bounced_at_the_depth_bound_can_be_cancelled():
    """A flush interval of at most ``INLINE_DELAY_US`` runs inline,
    but at ``MAX_INLINE_DEPTH`` it is bounced to a queue instead.  The
    flusher keeps the handle ``after`` returns and cancels it when the
    batch threshold flushes the epoch early, so the bounced call must
    still hand one back (it used to return ``None``, and the second
    append raised ``AttributeError``).  The appends run in a callback,
    so nothing they queue runs before both are in."""
    entry = RedoEntry("r", "t", UPDATE, (0,), {"v": 0})
    size = len(RedoRecord(1, (entry,)).sealed)
    costs = replace(XEON_E3_1276.costs, flush_interval_us=10.0,
                    flush_batch_bytes=2 * size)
    assert costs.flush_interval_us <= INLINE_DELAY_US
    backend = ThreadsBackend()
    backend.attach(1)
    try:
        telemetry = Telemetry(None, TelemetryConfig())
        flusher = LogFlusher(0, backend, costs, "group", telemetry)
        acks = []

        def append_two_at_the_depth_bound():
            state = backend._thread_state()
            state.depth = MAX_INLINE_DEPTH
            try:
                for tid in (1, 2):
                    acks.append(flusher.on_append(
                        RedoRecord(tid, (entry,))))
            finally:
                state.depth = 0

        backend.soon(append_two_at_the_depth_bound)
        backend.run()
        assert len(acks) == 2 and all(ack.resolved for ack in acks)
        metric = telemetry.registry.value
        assert metric("log_early_flushes_total", container=0) == 1
        # The bounced timer never ran.
        assert metric("log_fsyncs_total", container=0) == 1
        assert flusher.durable_tid == 2
    finally:
        backend.shutdown()
