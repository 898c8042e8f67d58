"""Two containers entering one reactor for one root: exactly one wins.

A remote sub-call registers on its target reactor when it is invoked
(Section 2.2.4: "invoked, but have not completed"), and the invoking
code runs on the *caller's* container.  So under ``threads`` two
sub-transactions of one root, relayed through two containers to the
same reactor, enter it from two OS threads at once.  When the check
("is another sub-transaction of this root active here?") and the
register were two steps, both could pass — on a free-threaded build
the two threads really run in parallel.  The check and the register
are now one ``dict.setdefault`` on the root, so one relay is refused
and the root aborts as a dangerous structure.

The shape, one reactor per container: ``r0`` calls ``relay`` on ``r1``
and on ``r2`` without waiting, and each relay calls ``hold`` on
``r3``.  ``hold`` stays active until both relays have tried to enter
``r3``, so the two entries always overlap and the abort is certain,
whatever the thread timing.  The loser must be refused *at its entry*
("race on reactor"), so ``hold`` runs once: a split check that let
both in shows up either as a refusal when the overwritten one reaches
``r3``'s executor ("raced another sub-transaction") or as a second
``hold``.  A short switch interval makes the interpreter switch
threads between the two halves of a split check.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.errors import TransactionAbort

#: Seconds ``hold`` waits for the relays; reached only on a failure.
BOUND = 2.0
ROUNDS = 100

NODE = ReactorType("Node", lambda: [])
NAMES = ["r0", "r1", "r2", "r3"]


@NODE.procedure
def fan_in(ctx, relays, target, tried):
    """``tried`` is released once per relay that tried to enter
    ``target``."""
    futures = []
    for relay_name in relays:
        futures.append(
            (yield ctx.call(relay_name, "relay", target, tried)))
    for future in futures:
        yield ctx.get(future)


@NODE.procedure
def relay(ctx, target, tried):
    try:
        future = yield ctx.call(target, "hold", tried)
    finally:
        # Entered, or refused at the entry: either way it tried.
        tried.release()
    return (yield ctx.get(future))


@NODE.procedure
def hold(ctx, tried):
    for __ in range(2):
        if not tried.acquire(timeout=BOUND):
            raise RuntimeError("a relay never tried to enter")


def test_two_containers_entering_one_reactor_abort_the_root():
    database = ReactorDatabase(
        shared_nothing(4, backend="threads",
                       placement=RangePlacement(1)),
        [(name, NODE) for name in NAMES])
    assert [database.reactor(name).container.container_id
            for name in NAMES] == [0, 1, 2, 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for __ in range(ROUNDS):
            with pytest.raises(TransactionAbort,
                               match="race on reactor 'r3'"):
                database.run("r0", "fan_in", ["r1", "r2"], "r3",
                             threading.Semaphore(0))
            assert not database.unsettled_roots
    finally:
        sys.setswitchinterval(interval)
        database.close()
