"""Seeded inputs — transactions and the open loop's arrival times:
the only place ``--seed`` reaches.

Inputs come from the repo's own generators
(``SmallbankWorkload.next_txn``, ``TpccWorkload.factory_for``), driven
by a stub worker that carries nothing but an ``rng`` — the generators
read no other attribute.  Every spec's arguments are normalised through
a ``json`` round trip (tuples become lists) and asserted stable under a
second one, so the embedded and the served runs execute *the same*
arguments: the program under test receives only
``(reactor, proc, args)`` lists, never the seed.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

from repro.workloads import smallbank, tpcc

Spec = tuple[str, str, list]

#: Specs generated per run.  Every repeat warms up on the first ones
#: and then measures from its own third of the pool on (on this box a
#: TPC-C repeat uses about 8,000, so its three stretches are disjoint;
#: SmallBank's overlap, which matters less: its six procedures cost
#: about the same).  Phases are time-boxed, so a faster machine gets
#: further and :func:`cycle_from` wraps around.
POOL = {"smallbank": 60_000, "tpcc": 30_000}

SMALLBANK_CUSTOMERS = 10_000
TPCC_WAREHOUSES = 2
TPCC_REMOTE_ITEM_PROB = 0.1


class _RngWorker:
    """All a workload generator reads from its worker: ``rng``."""

    __slots__ = ("rng",)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng


def _normalise(spec: tuple) -> Spec:
    reactor, proc, args = spec
    wire_args = json.loads(json.dumps(args))
    if json.loads(json.dumps(wire_args)) != wire_args:
        raise ValueError(f"spec does not survive a json round trip: "
                         f"{spec!r}")
    return (reactor, proc, wire_args)


def smallbank_specs(seed: int, count: int,
                    customers: int) -> list[Spec]:
    """Standard-mix SmallBank inputs over ``customers`` accounts."""
    worker = _RngWorker(random.Random(f"e2e/smallbank/{seed}"))
    next_txn = smallbank.SmallbankWorkload(customers).next_txn
    return [_normalise(next_txn(worker)) for __ in range(count)]


def tpcc_specs(seed: int, count: int) -> list[Spec]:
    """Standard-mix TPC-C inputs, alternating the two home warehouses
    (the generator's client affinity: one factory per warehouse)."""
    worker = _RngWorker(random.Random(f"e2e/tpcc/{seed}"))
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES,
        remote_item_prob=TPCC_REMOTE_ITEM_PROB, seed=seed)
    factories = [workload.factory_for(w) for w in range(TPCC_WAREHOUSES)]
    return [_normalise(factories[i % TPCC_WAREHOUSES](worker))
            for i in range(count)]


def generate(kind: str, seed: int, count: int,
             customers: int) -> list[Spec]:
    if kind == "tpcc":
        return tpcc_specs(seed, count)
    return smallbank_specs(seed, count, customers)


def arrival_gaps(seed: int, rate: float) -> Iterator[float]:
    """Endless Poisson arrivals at ``rate`` per second, as the seconds
    between one request and the next."""
    rng = random.Random(f"e2e/arrivals/{seed}")
    while True:
        yield rng.expovariate(rate)


def cycle_from(specs: list[Spec], start: int) -> Iterator[Spec]:
    """Endless iterator over ``specs`` beginning at index ``start``."""
    n = len(specs)
    index = start % n
    while True:
        yield specs[index]
        index += 1
        if index == n:
            index = 0
