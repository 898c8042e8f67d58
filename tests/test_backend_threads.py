"""Unit tests for the ``threads`` execution backend.

The integration story (same committed state as sim, certificates pass)
lives in ``test_backend_equivalence.py``; these tests pin the backend
primitives themselves: the registry, deployment-config validation,
queue/timer scheduling, the burst hand-off (self-posts ride the
running burst up to ``MAX_BURST``, a sleeping worker is woken exactly
once), quiesce accounting, error propagation, typed errors after
``shutdown()``, thread-safe futures, ``guarded``, the database-level
lifecycle behaviour, and the protocol both backends implement.  The quiescence
counters have a property test of their own
(``test_threads_quiescence.py``).
"""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro.client import LocalClient, TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import DeploymentConfig, shared_nothing
from repro.errors import DeploymentError, SimulationError
from repro.replication.config import ReplicationConfig
from repro.runtime import backend as backend_module
from repro.runtime.backend import create_backend
from repro.runtime.futures import SimFuture, ThreadSafeFuture
from repro.runtime.threads import (
    INLINE_DELAY_US,
    MAX_BURST,
    MAX_INLINE_DEPTH,
    ThreadsBackend,
    _WorkQueue,
)
from repro.serving import serve_in_thread
from repro.sim.scheduler import SimScheduler
from repro.workloads import smallbank as sb


# ----------------------------------------------------------------------
# Registry and deployment config
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_default_is_sim(self):
        deployment = shared_nothing(2)
        assert deployment.backend == "sim"
        backend = create_backend(deployment)
        assert type(backend) is SimScheduler
        assert backend.name == "sim"
        assert backend.is_virtual is True

    def test_threads_selected_by_name(self):
        deployment = shared_nothing(2, backend="threads")
        backend = create_backend(deployment)
        assert isinstance(backend, ThreadsBackend)
        assert backend.name == "threads"
        assert backend.is_virtual is False
        assert backend.future_class is ThreadSafeFuture

    def test_unknown_backend_rejected_at_config(self):
        with pytest.raises(DeploymentError, match="backend"):
            shared_nothing(2, backend="gpu")

    def test_unknown_backend_rejected_at_create(self):
        class Stub:
            backend = "gpu"
        with pytest.raises(DeploymentError, match="gpu"):
            create_backend(Stub())

    def test_round_trip_preserves_backend(self):
        deployment = shared_nothing(2, backend="threads")
        data = deployment.to_dict()
        assert data["backend"] == "threads"
        restored = DeploymentConfig.from_dict(data)
        assert restored.backend == "threads"
        assert restored.to_dict() == data

    def test_threads_plus_replication_rejected(self):
        with pytest.raises(DeploymentError, match="replication"):
            shared_nothing(
                2, backend="threads",
                replication=ReplicationConfig(
                    replicas_per_container=1, mode="async"))


def protocol_rows() -> list[str]:
    """The member names of the protocol table in
    :mod:`repro.runtime.backend`'s docstring, in order."""
    lines = backend_module.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("===")]
    names = []
    for line in lines[rules[0] + 1:rules[1]]:
        match = re.match(r"``(\w+(?:/\w+)*)", line)
        if match:
            names.extend(match.group(1).split("/"))
    assert len(names) == len(set(names)) > 0
    return names


@pytest.mark.parametrize("row", protocol_rows())
@pytest.mark.parametrize("backend_class", [SimScheduler, ThreadsBackend])
def test_every_protocol_row_is_on_both_backends(backend_class, row):
    """One protocol, no backend-only rows: callers read every member
    as a plain attribute, whichever backend they hold."""
    assert hasattr(backend_class, row)


# ----------------------------------------------------------------------
# Scheduling, quiesce, errors
# ----------------------------------------------------------------------

@pytest.fixture
def backend():
    instance = ThreadsBackend()
    instance.attach(2)
    yield instance
    instance.shutdown()


@pytest.mark.parametrize("depth", [0, MAX_INLINE_DEPTH])
@pytest.mark.parametrize("call", ["at", "after", "soon"])
@pytest.mark.parametrize("backend_class", [SimScheduler, ThreadsBackend])
def test_scheduling_returns_a_cancellable_handle(backend_class, call,
                                                 depth):
    """The ``at/after/soon`` row: a handle whose ``cancel`` works,
    whether the callback is still queued, ran inline (a ``threads``
    delay of at most ``INLINE_DELAY_US``) or was bounced to a queue at
    the inline depth bound — where cancelling still stops it.  The
    calls are made from a callback, so on ``threads`` nothing they
    queue can run before the cancel."""
    instance = backend_class()
    instance.attach(1)
    threads = backend_class is ThreadsBackend
    seen, ran_inline = [], []

    def schedule_then_cancel():
        if threads:
            instance._thread_state().depth = depth
        try:
            when = {"at": (instance.now,), "after": (0.0,), "soon": ()}
            handle = getattr(instance, call)(*when[call], seen.append,
                                             call)
            ran_inline.append(seen == [call])
            handle.cancel()
        finally:
            if threads:
                instance._thread_state().depth = 0

    inline = threads and call != "soon" and not depth
    try:
        instance.soon(schedule_then_cancel)
        instance.run()
        assert ran_inline == [inline]
        assert seen == ([call] if inline else [])
    finally:
        instance.shutdown()


class TestThreadsScheduling:
    def test_run_requires_attach(self):
        with pytest.raises(SimulationError, match="not attached"):
            ThreadsBackend().run()

    def test_attach_twice_rejected(self, backend):
        with pytest.raises(SimulationError, match="already attached"):
            backend.attach(2)

    def test_post_runs_on_named_container_thread(self, backend):
        seen = []
        backend.post(1, lambda: seen.append(
            threading.current_thread().name))
        backend.run()
        assert seen == ["repro-container-1"]
        assert backend.pending() == 0
        assert backend.events_dispatched >= 1

    def test_short_delay_executes_inline(self, backend):
        seen = []
        backend.after(INLINE_DELAY_US, seen.append, "inline")
        assert seen == ["inline"]  # before any run(): same thread

    def test_at_a_timestamp_already_passed_is_due_now(self, backend):
        # The wall clock runs on between a caller's ``now`` and its
        # ``at(now + cost)`` (a log flush priced a thread switch ago):
        # that is "due", not a scheduling error.  A negative *delay*
        # stays the caller's bug.
        seen = []
        backend.at(backend.now - 80.0, seen.append, "due")
        assert seen == ["due"]
        with pytest.raises(SimulationError):
            backend.after(-80.0, seen.append, "never")

    def test_long_delay_fires_via_timer(self, backend):
        seen = []
        backend.after(5_000.0, seen.append, "timer")
        assert seen == []
        backend.run()
        assert seen == ["timer"]

    def test_timer_cancel_unblocks_run(self, backend):
        handle = backend.after(60_000_000.0, lambda: None)  # 60 s
        assert backend.pending() == 1
        handle.cancel()
        assert handle.cancelled
        backend.run()  # must not wait a minute
        assert backend.pending() == 0

    def test_run_until_ignores_later_timers(self, backend):
        seen = []
        handle = backend.after(60_000_000.0, seen.append, "far")
        start = time.monotonic()
        backend.run(until=backend.now + 20_000.0)  # 20 ms
        elapsed = time.monotonic() - start
        assert seen == []
        assert elapsed < 10.0
        handle.cancel()

    def test_run_until_waits_out_the_window(self, backend):
        start = time.monotonic()
        backend.run(until=backend.now + 30_000.0)
        assert time.monotonic() - start >= 0.025

    def test_worker_error_reraised_from_run(self, backend):
        def boom():
            raise RuntimeError("worker exploded")
        backend.post(0, boom)
        with pytest.raises(RuntimeError, match="worker exploded"):
            backend.run()
        backend.run()  # error consumed; quiesced again

    def test_now_is_monotonic_wall_clock(self, backend):
        first = backend.now
        time.sleep(0.002)
        assert backend.now > first

    def test_shutdown_idempotent(self):
        instance = ThreadsBackend()
        instance.attach(1)
        instance.shutdown()
        instance.shutdown()


class TestBurstHandOff:
    """Deterministic guards on the hand-off: counts and orders, no
    clock (the deadlines below only turn a hang into a failure)."""

    @pytest.fixture
    def puts(self, monkeypatch):
        """Every ``_WorkQueue.put``, as the queue it went to."""
        seen = []
        real_put = _WorkQueue.put

        def counting_put(queue, item):
            seen.append(queue)
            real_put(queue, item)

        monkeypatch.setattr(_WorkQueue, "put", counting_put)
        return seen

    @staticmethod
    def _chain(backend, ran, length):
        """A callback on container 0 that re-posts itself until it
        has run ``length`` + 1 times."""
        def step(n):
            ran.append(n)
            if n < length:
                backend.post(0, step, n + 1)
        return step

    def test_self_posts_ride_the_burst(self, backend, puts):
        ran = []
        backend.post(0, self._chain(backend, ran, MAX_BURST), 0)
        backend.run()
        assert ran == list(range(MAX_BURST + 1))
        assert len(puts) == 1  # the first post, from this thread
        assert backend.pending() == 0
        assert backend.events_dispatched == MAX_BURST + 1

    def test_the_self_post_past_the_bound_goes_through_the_queue(
            self, backend, puts):
        ran = []
        backend.post(0, self._chain(backend, ran, 2 * MAX_BURST + 2), 0)
        backend.run()
        assert ran == list(range(2 * MAX_BURST + 3))
        # One per burst: this thread's, then the worker's own once a
        # burst has taken MAX_BURST self-posts.
        assert puts == [backend._queues[0]] * 3

    def test_a_foreign_post_is_not_starved_by_a_self_posting_chain(
            self, backend):
        ran = []
        midway, posted = threading.Event(), threading.Event()
        length = 4 * MAX_BURST

        def step(n):
            ran.append(n)
            if n == 3:
                midway.set()
                assert posted.wait(5.0)
            if n < length:
                backend.post(0, step, n + 1)

        backend.post(0, step, 0)
        assert midway.wait(5.0)
        backend.post(0, ran.append, "foreign")
        posted.set()
        backend.run()
        # It waited out the burst it fell into — at most MAX_BURST
        # self-posts — and not the chain.
        assert ran.index("foreign") == MAX_BURST + 1
        assert [n for n in ran if n != "foreign"] == \
            list(range(length + 1))

    def test_per_poster_fifo_across_the_burst_boundary(self, backend):
        ran = []
        inside, go = threading.Event(), threading.Event()
        count = 2 * MAX_BURST + 10

        def poster():
            inside.set()
            assert go.wait(5.0)
            # The first MAX_BURST ride this burst, the rest queue up
            # behind what the other thread posted meanwhile.
            for n in range(count):
                backend.post(0, ran.append, ("own", n))

        backend.post(0, poster)
        assert inside.wait(5.0)
        for n in range(count):
            backend.post(0, ran.append, ("foreign", n))
        go.set()
        backend.run()
        assert len(ran) == 2 * count
        for who in ("own", "foreign"):
            assert [n for w, n in ran if w == who] == list(range(count))

    def test_put_wakes_a_sleeping_worker_exactly_once(self, backend):
        queue = backend._queues[1]

        class CountingWake:
            """``queue.wake`` with its releases counted; a release
            too many raises, as on the lock itself."""
            releases = 0

            def __init__(self, lock):
                self.acquire = lock.acquire
                self._release = lock.release

            def release(self):
                CountingWake.releases += 1
                self._release()

        ran = []
        for round_no in range(1, 101):
            deadline = time.monotonic() + 5.0
            while not queue.asleep:
                assert time.monotonic() < deadline
                time.sleep(0)
            if round_no == 1:
                queue.wake = CountingWake(queue.wake)
            gate = threading.Event()
            backend.post(1, gate.wait, 5.0)   # wakes the worker ...
            for n in range(3):                # ... these must not
                backend.post(1, ran.append, n)
            gate.set()
            backend.run()
            assert CountingWake.releases == round_no
        assert ran == [0, 1, 2] * 100


class TestShutDown:
    """Work handed to a stopped backend used to queue for a worker
    that had exited: ``run()`` then waited forever."""

    @staticmethod
    def _bounded(fn, *args):
        """``fn(*args)`` on a thread of its own: what it returned or
        raised — or a failure, not a hang, if it did neither."""
        box = []

        def target():
            try:
                box.append(("returned", fn(*args)))
            except BaseException as error:  # noqa: BLE001
                box.append(("raised", error))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), f"{fn} still blocked after 5 s"
        return box[0]

    @pytest.fixture
    def stopped(self):
        instance = ThreadsBackend()
        instance.attach(2)
        instance.run()
        instance.shutdown()
        return instance

    @pytest.mark.parametrize("entry, args", [
        ("post", (0, print)),
        ("soon", (print,)),
        ("after", (INLINE_DELAY_US, print)),
        ("after", (5_000.0, print)),
        ("at", (0.0, print)),
        ("run", ()),
    ])
    def test_every_entry_point_raises(self, stopped, entry, args):
        how, error = self._bounded(getattr(stopped, entry), *args)
        assert how == "raised"
        assert isinstance(error, SimulationError)
        assert "shut down" in str(error)
        assert stopped.pending() == 0
        stopped.shutdown()  # still idempotent

    def test_shutdown_releases_a_caller_inside_run(self):
        instance = ThreadsBackend()
        instance.attach(1)
        gate = threading.Event()
        instance.post(0, gate.wait, 5.0)
        box = []

        def runner():
            try:
                instance.run()
            except SimulationError as error:
                box.append(error)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        while not instance._running:
            time.sleep(0)
        stopper = threading.Thread(target=instance.shutdown,
                                   daemon=True)
        stopper.start()
        thread.join(timeout=5.0)
        gate.set()
        stopper.join(timeout=5.0)
        assert not thread.is_alive() and not stopper.is_alive()
        assert "shut down" in str(box[0])

    def test_submit_after_close_raises_instead_of_hanging(self):
        database = ReactorDatabase(
            shared_nothing(2, backend="threads"), sb.declarations(4))
        sb.load(database, 4)
        client = LocalClient(database)
        assert client.call(sb.reactor_name(0), "balance") is not None
        database.close()

        def submit_and_drain():
            client.submit(sb.reactor_name(0), "balance")
            client.drain()

        how, error = self._bounded(submit_and_drain)
        assert how == "raised" and isinstance(error, SimulationError)
        how, error = self._bounded(client.drain)
        assert how == "raised" and isinstance(error, SimulationError)

    def test_served_request_after_close_is_answered_internal(self):
        database = ReactorDatabase(
            shared_nothing(2, backend="threads"), sb.declarations(4))
        sb.load(database, 4)
        server = serve_in_thread(database)
        client = TcpClient(server.host, server.port).connect()
        try:
            name = sb.reactor_name(1)
            assert client.submit(name, "balance").wait(5.0).committed
            database.close()
            outcome = client.submit(name, "balance").wait(5.0)
            assert not outcome.committed
            assert outcome.error_code == "internal"
            assert "shut down" in outcome.reason
        finally:
            client.close()
            server.stop()


class TestGuarded:
    def test_guarded_excludes_other_threads(self, backend):
        order = []

        def holder():
            order.append("enter")
            time.sleep(0.02)
            order.append("exit")

        backend.post(0, backend.guarded, (), holder)
        time.sleep(0.005)
        backend.post(1, backend.guarded, (), order.append, "second")
        backend.run()
        assert order == ["enter", "exit", "second"]

    def test_guarded_holds_participant_locks(self, backend):
        witnessed = []

        def committer():
            witnessed.append(
                [lock._is_owned()  # noqa: SLF001
                 for lock in backend._container_locks])

        backend.post(0, backend.guarded, [1, 0, 1], committer)
        backend.run()
        assert witnessed == [[True, True]]

    def test_guarded_returns_the_value_and_nests(self, backend):
        seen = []

        def outer():
            return backend.guarded([0, 1], divmod, 7, 2)

        backend.post(0, lambda: seen.append(backend.guarded((), outer)))
        backend.run()
        assert seen == [(3, 1)]

    def test_a_raising_call_releases_every_lock(self, backend):
        """The state lock and both participant locks are free after
        ``fn`` raises, and the worker holds its own lock again."""
        locks = backend._container_locks  # noqa: SLF001
        seen = []

        def caller():
            with pytest.raises(ZeroDivisionError):
                backend.guarded([0, 1], divmod, 1, 0)
            seen.append((backend._tls.state.lock_held,  # noqa: SLF001
                         locks[0]._is_owned(),  # noqa: SLF001
                         locks[1]._is_owned(),  # noqa: SLF001
                         backend._state_lock._is_owned()))  # noqa: SLF001

        backend.post(0, caller)
        backend.run()
        assert seen == [(True, True, False, False)]
        other = threading.Thread(
            target=backend.guarded, args=([0, 1], seen.append, "next"))
        other.start()
        other.join(timeout=5.0)
        assert not other.is_alive()
        assert seen[1:] == ["next"]


# ----------------------------------------------------------------------
# Thread-safe futures
# ----------------------------------------------------------------------

class TestThreadSafeFuture:
    def _future(self):
        return ThreadSafeFuture(remote=True, target_reactor="acct")

    def test_is_a_sim_future(self):
        assert isinstance(self._future(), SimFuture)

    def test_cross_thread_resolve_wakes_wait(self):
        future = self._future()
        thread = threading.Thread(
            target=lambda: (time.sleep(0.01),
                            future.resolve(41)))
        thread.start()
        assert future.wait(timeout=5.0) is True
        assert future.resolved
        assert future.value == 41
        thread.join()

    def test_wait_times_out_when_pending(self):
        assert self._future().wait(timeout=0.01) is False

    def test_waiter_added_after_resolve_fires_immediately(self):
        future = self._future()
        future.resolve("v")
        seen = []
        future.add_waiter(lambda fut: seen.append(fut.value))
        assert seen == ["v"]

    def test_waiter_added_before_resolve_fires_on_resolve(self):
        future = self._future()
        seen = []
        future.add_waiter(lambda fut: seen.append(fut.value))
        future.resolve("later")
        assert seen == ["later"]

    def test_fail_propagates_error_state(self):
        future = self._future()
        future.fail(ValueError("nope"))
        assert future.wait(timeout=1.0) is True
        assert future.failed
        assert isinstance(future.error, ValueError)

    def test_relayed_waiter_runs_on_container_thread(self, backend):
        future = self._future()
        seen = []
        backend.add_waiter(
            future,
            lambda fut: seen.append(threading.current_thread().name),
            container=1)
        future.resolve("x")
        backend.run()
        assert seen == ["repro-container-1"]


# ----------------------------------------------------------------------
# Database-level behaviour
# ----------------------------------------------------------------------

class TestDatabaseOnThreads:
    def _database(self, **kwargs):
        deployment = shared_nothing(2, backend="threads", **kwargs)
        database = ReactorDatabase(deployment, sb.declarations(4))
        sb.load(database, 4)
        return database

    def test_backend_name_and_close_idempotent(self):
        database = self._database()
        assert database.backend_name == "threads"
        assert isinstance(database.scheduler, ThreadsBackend)
        database.close()
        database.close()

    def test_migration_requires_sim(self):
        database = self._database()
        try:
            with pytest.raises(DeploymentError, match="sim"):
                database.migrate(sb.reactor_name(0), 1)
            with pytest.raises(DeploymentError, match="sim"):
                database.rebalance()
        finally:
            database.close()

    def test_explicit_scheduler_overrides_config(self):
        deployment = shared_nothing(2, backend="threads")
        database = ReactorDatabase(deployment, sb.declarations(4),
                                   scheduler=SimScheduler())
        assert database.backend_name == "sim"
