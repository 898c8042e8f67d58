"""A procedure's own bug aborts its transaction; it does not wedge
the executor.

``TransactionExecutor._step`` used to let anything but a
``ReactorError`` escape: served on sim a ``1 / 0`` in a procedure left
``_pump_once`` as "Exception in callback", on ``threads`` it was
parked in an error slot only ``run()`` reads — and either way
``executor.running`` was never cleared, so that request *and every
later one to the same executor* went unanswered.  Now the root aborts
with a typed reason, its writes roll back, its locks are released and
the executor moves on.  Pinned embedded and served, on both backends.

A sub-transaction that fails while its siblings are outstanding
aborts the root only once they have finished too: none of them runs on
after the root and keeps a lock.

An unknown procedure name wedged an executor the same way, root or
sub-call.  A root naming one is now refused at submit, like an unknown
reactor (over the wire: a typed ``bad_request``), and a call naming
one raises in the calling frame.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.client import LocalClient, TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.core.reactor import ReactorType
from repro.errors import TransactionAbort, UnknownProcedureError
from repro.relational import float_col, make_schema, str_col
from repro.serving import serve_in_thread

#: Seconds any one answer may take; the parent commit never answers.
BOUND = 5.0

FAULTY = ReactorType("Faulty", lambda: [
    make_schema("cell", [str_col("name"), float_col("value")],
                ["name"])])


@FAULTY.procedure
def ok(ctx):
    return ctx.lookup("cell", ctx.my_name())["value"]


@FAULTY.procedure
def add(ctx, amount):
    value = ctx.lookup("cell", ctx.my_name())["value"] + amount
    ctx.update("cell", ctx.my_name(), {"value": value})
    return value


@FAULTY.procedure
def boom(ctx):
    return 1 / 0


@FAULTY.procedure
def write_then_boom(ctx):
    ctx.update("cell", ctx.my_name(), {"value": -1.0})
    raise KeyError("left over from a refactor")


@FAULTY.procedure
def slow_add(ctx, amount):
    yield ctx.compute(200.0)  # slow in virtual time (sim) ...
    time.sleep(0.02)  # ... and on the wall clock (threads)
    return (yield ctx.call(ctx.my_name(), "add", amount))


@FAULTY.procedure
def fan_out(ctx, bad, good):
    """``bad`` raises while ``good`` is still outstanding."""
    slow = yield ctx.call(good, "slow_add", 5.0)
    failing = yield ctx.call(bad, "boom")
    yield ctx.get(failing)
    return (yield ctx.get(slow))


@FAULTY.procedure
def fire_and_forget(ctx, bad, good):
    """Returns with ``bad``'s failure and ``good``'s sibling both
    outstanding: the implicit sync meets the failure first."""
    yield ctx.call(bad, "boom")
    yield ctx.call(good, "slow_add", 5.0)


@FAULTY.procedure
def call_missing(ctx, target):
    return (yield ctx.call(target, "no_such_proc"))


NAMES = ["f0", "f1", "f2"]


def make_database(backend: str, scheme: str) -> ReactorDatabase:
    database = ReactorDatabase(
        shared_nothing(3, mpl=4, cc_scheme=scheme, backend=backend),
        [(name, FAULTY) for name in NAMES])
    for name in NAMES:
        database.load(name, "cell", [{"name": name, "value": 10.0}])
    return database


class _Embedded:
    def __init__(self, database: ReactorDatabase) -> None:
        self.client = LocalClient(database)

    def call(self, reactor, proc, *args):
        submission = self.client.submit(reactor, proc, *args)
        self.client.drain()
        assert submission.done, f"{proc} on {reactor} never answered"
        return submission.outcome

    def close(self) -> None:
        pass


class _Served:
    def __init__(self, database: ReactorDatabase) -> None:
        self.server = serve_in_thread(database)
        self.client = TcpClient(self.server.host,
                                self.server.port).connect()

    def call(self, reactor, proc, *args):
        return self.client.submit(reactor, proc, *args).wait(BOUND)

    def close(self) -> None:
        self.client.close()
        self.server.stop()


@pytest.fixture(params=["embedded", "served"])
def path(request):
    return {"embedded": _Embedded, "served": _Served}[request.param]


@pytest.mark.parametrize("backend", ["sim", "threads"])
@pytest.mark.parametrize("scheme", ["occ", "2pl_nowait"])
def test_a_raising_procedure_aborts_and_the_executor_moves_on(
        path, backend, scheme):
    database = make_database(backend, scheme)
    driver = path(database)
    try:
        outcome = driver.call("f0", "boom")
        assert not outcome.committed
        assert outcome.error_code is None  # an abort, not a refusal
        assert outcome.reason == \
            "procedure raised ZeroDivisionError: division by zero"
        # The same executor answers the next request.
        assert driver.call("f0", "ok").result == 10.0

        # Its writes roll back and — under 2PL, where a held lock
        # aborts the next writer outright — its locks are free.
        outcome = driver.call("f1", "write_then_boom")
        assert not outcome.committed
        assert "procedure raised KeyError" in outcome.reason
        assert driver.call("f1", "ok").result == 10.0
        outcome = driver.call("f1", "add", 2.5)
        assert outcome.committed, outcome.reason
        assert driver.call("f1", "ok").result == 12.5

        # A sub-transaction that raises while a sibling is still
        # outstanding: the root waits for the sibling, aborts, and
        # nothing of either is left behind on any of three executors.
        outcome = driver.call("f0", "fan_out", "f1", "f2")
        assert not outcome.committed
        assert "procedure raised ZeroDivisionError" in outcome.reason
        assert driver.call("f2", "ok").result == 10.0
        for name in NAMES:
            outcome = driver.call(name, "add", 1.0)
            assert outcome.committed, (name, outcome.reason)
    finally:
        driver.close()
        database.close()


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_a_failed_sibling_leaves_no_orphan(path, backend):
    """The implicit sync at a procedure's end waits for every
    outstanding sub-transaction, not just up to the first failed one.
    Otherwise ``slow_add`` runs on after its root aborted, opens a
    session nobody commits or aborts, and under 2PL holds its lock for
    good."""
    database = make_database(backend, "2pl_nowait")
    driver = path(database)
    try:
        outcome = driver.call("f0", "fire_and_forget", "f1", "f2")
        assert not outcome.committed
        assert "procedure raised ZeroDivisionError" in outcome.reason
        outcome = driver.call("f2", "ok")
        assert outcome.committed, outcome.reason
        assert outcome.result == 10.0
        outcome = driver.call("f2", "add", 1.0)
        assert outcome.committed, outcome.reason
    finally:
        driver.close()
        database.close()


def test_a_raising_procedure_leaves_no_cyclic_garbage():
    """The implicit sync re-raises the procedure's error from a local:
    a frame still holding it after the raise would pin the error, its
    traceback and through them the root, in a cycle."""
    database = make_database("sim", "occ")
    gc.collect()
    gc.disable()
    try:
        for proc in ("boom", "write_then_boom"):
            with pytest.raises(TransactionAbort):
                database.run("f0", proc)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_an_unknown_procedure_is_refused_at_submit(path, backend):
    database = make_database(backend, "occ")
    driver = path(database)
    try:
        if path is _Served:
            outcome = driver.call("f0", "no_such_proc")
            assert outcome.error_code == "bad_request"
            assert "no procedure 'no_such_proc'" in outcome.reason
        else:
            with pytest.raises(UnknownProcedureError,
                               match="no procedure 'no_such_proc'"):
                driver.client.submit("f0", "no_such_proc")
        # Nothing started, so the same executor answers the next one.
        assert driver.call("f0", "ok").result == 10.0
    finally:
        driver.close()
        database.close()


@pytest.mark.parametrize("backend", ["sim", "threads"])
@pytest.mark.parametrize("target", ["f0", "f1"], ids=["inline", "remote"])
def test_a_call_to_an_unknown_procedure_aborts_its_root(
        path, backend, target):
    database = make_database(backend, "occ")
    driver = path(database)
    try:
        outcome = driver.call("f0", "call_missing", target)
        assert not outcome.committed
        assert outcome.error_code is None  # an abort, not a refusal
        assert outcome.reason.startswith("UnknownProcedureError: ")
        assert "no procedure 'no_such_proc'" in outcome.reason
        for name in NAMES:
            assert driver.call(name, "ok").result == 10.0
    finally:
        driver.close()
        database.close()
