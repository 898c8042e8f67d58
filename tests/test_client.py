"""The unified Client surface: LocalClient, TcpClient, submissions."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.client import (
    Client,
    LocalClient,
    Outcome,
    Submission,
    TcpClient,
)
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.errors import TransactionAbort
from repro.serving.protocol import Overloaded
from repro.workloads import smallbank as sb

N_CUSTOMERS = 4


@pytest.fixture
def database():
    deployment = shared_nothing(2, mpl=4,
                                placement=RangePlacement(2))
    db = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(db, N_CUSTOMERS)
    yield db
    db.close()


def test_importing_client_and_serving_leaves_the_asyncio_stack_out():
    """An embedded ``LocalClient`` user and a served process alike: in
    a fresh interpreter, importing the client and the server loads no
    asyncio, ssl, concurrent.futures or logging."""
    heavy = ("asyncio", "ssl", "concurrent.futures", "logging")
    code = ("import sys, repro, repro.client, repro.serving; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []


def test_a_tcp_client_only_process_loads_no_engine():
    """``repro``, ``repro.client`` and ``repro.serving`` resolve their
    engine-backed exports on first access, so a process that only
    speaks the wire imports no core, runtime or server module."""
    engine = ("repro.core", "repro.runtime", "repro.serving.server")
    code = ("import sys, repro.client.tcp; "
            "from repro.client import TcpClient; "
            f"print(*[m for m in sys.modules if m.startswith({engine!r})])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []


def test_lazy_exports_resolve_every_spelling():
    from repro import ReactorDatabase as top_level
    from repro.client.local import LocalClient as direct
    from repro.serving import serve_in_thread
    from repro.serving.server import serve_in_thread as from_server

    assert top_level is ReactorDatabase and LocalClient is direct
    assert serve_in_thread is from_server
    assert repro.DurabilityConfig is repro.durability.config \
        .DurabilityConfig
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_both_implementations_satisfy_protocol(database):
    assert isinstance(LocalClient(database), Client)
    assert isinstance(TcpClient("127.0.0.1", 1), Client)


def test_local_submit_resolves_on_drain(database):
    client = LocalClient(database).connect()
    sub = client.submit(sb.reactor_name(0), "deposit_checking", 10.0)
    assert not sub.done
    client.drain()
    assert sub.done and sub.outcome.committed
    client.close()  # borrows the database: close is a no-op
    assert client.call(sb.reactor_name(0), "balance",
                       read_only=True) is not None


def test_local_submit_many(database):
    client = LocalClient(database)
    subs = client.submit_many(
        [(sb.reactor_name(i % N_CUSTOMERS), "transact_saving",
          (float(i),)) for i in range(8)])
    client.drain()
    assert all(s.outcome.committed for s in subs)


def test_local_abort_surfaces_reason(database):
    client = LocalClient(database)
    # Debiting far more than the savings balance aborts in-procedure.
    sub = client.submit(sb.reactor_name(0), "transact_saving",
                        -1_000_000.0)
    client.drain()
    outcome = sub.outcome
    assert not outcome.committed
    assert "insufficient savings" in outcome.reason
    assert not outcome.shed
    with pytest.raises(TransactionAbort):
        outcome.unwrap()


def test_on_done_callback_runs_at_resolution(database):
    client = LocalClient(database)
    seen = []
    client.submit(sb.reactor_name(1), "deposit_checking", 5.0,
                  on_done=seen.append)
    assert not seen
    client.drain()
    assert len(seen) == 1 and seen[0].committed


def test_submission_wait_times_out():
    with pytest.raises(TimeoutError):
        Submission().wait(timeout=0.01)


def test_submission_resolves_exactly_once():
    sub = Submission()
    first = Outcome(True, result=1)
    sub.resolve(first)
    sub.resolve(Outcome(False, reason="late"))
    assert sub.outcome is first


def test_late_callback_fires_immediately():
    sub = Submission()
    sub.resolve(Outcome(True))
    seen = []
    sub.add_done_callback(seen.append)
    assert seen == [sub.outcome]


def test_submission_wakes_every_waiter_across_threads():
    """The latch is handed from waiter to waiter: each one blocked in
    ``wait`` returns the one outcome, and so does a wait after it."""
    sub = Submission()
    seen = []
    waiters = [threading.Thread(
        target=lambda: seen.append(sub.wait(timeout=10.0)))
        for __ in range(3)]
    for waiter in waiters:
        waiter.start()
    with pytest.raises(TimeoutError):
        sub.wait(timeout=0.01)  # a timed-out wait takes nothing away
    outcome = Outcome(True, result=7)
    sub.resolve(outcome)
    for waiter in waiters:
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
    assert seen == [outcome] * 3
    assert sub.wait(timeout=0) is outcome
    assert sub.wait() is outcome
    assert sub.result() == 7


def test_shed_outcome_unwraps_to_overloaded():
    outcome = Outcome(False, reason="admission bound reached",
                      error_code="overloaded", retry_after_us=1500.0)
    assert outcome.shed
    with pytest.raises(Overloaded) as info:
        outcome.unwrap()
    assert info.value.retry_after_us == 1500.0
