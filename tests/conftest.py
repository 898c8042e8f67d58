"""Shared fixtures: a small banking reactor application.

The ``bank`` fixture family gives most runtime/core tests a realistic
multi-reactor application without each test redefining schemas and
procedures.  ``leaks`` records what a served test's threads let
escape.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.core.reactor import ReactorType
from repro.relational import float_col, make_schema, str_col

N_ACCOUNTS = 6


def _account_schema():
    return [
        make_schema("savings",
                    [str_col("owner"), float_col("balance")],
                    ["owner"]),
    ]


ACCOUNT = ReactorType("TestAccount", _account_schema)


@ACCOUNT.procedure
def get_balance(ctx):
    row = ctx.lookup("savings", ctx.my_name())
    return row["balance"] if row else None


@ACCOUNT.procedure
def credit(ctx, amount):
    row = ctx.lookup("savings", ctx.my_name())
    if row is None:
        ctx.abort("no such account")
    new_balance = row["balance"] + amount
    if new_balance < 0:
        ctx.abort("insufficient funds")
    ctx.update("savings", ctx.my_name(), {"balance": new_balance})
    return new_balance


@ACCOUNT.procedure
def transfer(ctx, dst, amount):
    fut = yield ctx.call(dst, "credit", amount)
    yield ctx.call(ctx.my_name(), "credit", -amount)
    return (yield ctx.get(fut))


@ACCOUNT.procedure
def fan_out(ctx, dsts, amount):
    """Asynchronous credits to several accounts, debit self once."""
    for dst in dsts:
        yield ctx.call(dst, "credit", amount)
    yield ctx.call(ctx.my_name(), "credit", -amount * len(dsts))


@ACCOUNT.procedure
def double_call_same(ctx, dst):
    """A dangerous structure: two concurrent sub-txns on one reactor."""
    yield ctx.call(dst, "credit", 1.0)
    yield ctx.call(dst, "credit", 2.0)


@ACCOUNT.procedure
def busy_work(ctx, micros):
    yield ctx.compute(micros)
    return micros


def account_name(i: int) -> str:
    return f"acct{i}"


def make_bank(deployment) -> ReactorDatabase:
    database = ReactorDatabase(
        deployment,
        [(account_name(i), ACCOUNT) for i in range(N_ACCOUNTS)])
    for i in range(N_ACCOUNTS):
        database.load(account_name(i), "savings",
                      [{"owner": account_name(i), "balance": 100.0}])
    return database


@pytest.fixture
def bank_sn():
    """Shared-nothing bank: 3 containers x 1 executor."""
    return make_bank(shared_nothing(3))


@pytest.fixture
def bank_se_affinity():
    return make_bank(shared_everything_with_affinity(3))


@pytest.fixture
def bank_se_rr():
    return make_bank(shared_everything_without_affinity(3))


@pytest.fixture(params=["sn", "se_affinity", "se_rr"])
def bank_any(request):
    """The same application under each of the paper's deployments."""
    builders = {
        "sn": lambda: make_bank(shared_nothing(3)),
        "se_affinity": lambda: make_bank(
            shared_everything_with_affinity(3)),
        "se_rr": lambda: make_bank(
            shared_everything_without_affinity(3)),
    }
    return builders[request.param]()


class Leaks:
    """What escaped a test's fault barriers: WARNING-or-worse records
    on any logger, and exceptions that reached
    ``threading.excepthook`` — a thread that died of one, or the
    server loop reporting one it survived."""

    def __init__(self, caplog) -> None:
        self._caplog = caplog
        #: ``threading.ExceptHookArgs``, in the order they arrived.
        self.exceptions: list = []

    @property
    def warnings(self) -> list[logging.LogRecord]:
        return [record for record in self._caplog.records
                if record.levelno >= logging.WARNING]

    def __call__(self) -> list[str]:
        """Everything that escaped so far, printable."""
        return [f"{r.name}: {r.getMessage()}" for r in self.warnings] + [
            f"{args.thread.name if args.thread else '?'}: "
            f"{args.exc_value!r}" for args in self.exceptions]


@pytest.fixture
def leaks(caplog, monkeypatch) -> Leaks:
    recorder = Leaks(caplog)
    caplog.set_level(logging.WARNING)
    monkeypatch.setattr(threading, "excepthook",
                        recorder.exceptions.append)
    return recorder
