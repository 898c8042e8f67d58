"""Closed-loop client workers.

Workers model the paper's client threads: each worker lives in a
*worker container* (cores disjoint from the transaction executors),
generates transaction inputs (paying ``input_gen``), submits the
transaction (paying ``client_send``), blocks until completion, pays
``client_receive`` on the reply thread switch, records the measurement,
and immediately issues the next transaction.

A workload supplies a ``txn_factory(worker) -> (reactor, proc, args)``
callable (or ``None`` to stop early); experiment code decides how many
workers to run and for how long.

Workers drive a :class:`ReactorDatabase` directly: being closed-loop
*and* part of the cost model (they charge client-side overheads onto
the root and read the virtual clock), they need the database's
scheduler and cost profile, not a submission surface.  Open-loop load
through a :class:`~repro.client.Client` is the end-to-end benchmark's
job (``Driver.open_loop`` in ``benchmarks/e2e/harness.py``).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.database import ReactorDatabase
from repro.runtime.transaction import RootTransaction, TxnStats

TxnSpec = tuple[str, str, tuple]
TxnFactory = Callable[["Worker"], TxnSpec | None]


class Worker:
    """One closed-loop load generator."""

    __slots__ = ("database", "txn_factory", "deadline", "rng", "stats",
                 "issued", "busy_time", "_issue_start")

    def __init__(self, worker_id: int, database: ReactorDatabase,
                 txn_factory: TxnFactory, deadline: float,
                 seed: int = 42) -> None:
        self.database = database
        self.txn_factory = txn_factory
        #: Virtual time after which no new transactions are issued.
        self.deadline = deadline
        self.rng = random.Random(f"worker-{worker_id}/{seed}")
        self.stats: list[TxnStats] = []
        self.issued = 0
        self.busy_time = 0.0
        self._issue_start = 0.0

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.database.scheduler.soon(self._issue)

    def _issue(self) -> None:
        scheduler = self.database.scheduler
        if scheduler.now >= self.deadline:
            return
        spec = self.txn_factory(self)
        if spec is None:
            return
        reactor, proc, args = spec
        self._issue_start = scheduler.now
        costs = self.database.costs
        setup = costs.input_gen + costs.client_send
        self.busy_time += setup
        scheduler.after(setup, self._submit, reactor, proc, args)

    def _submit(self, reactor: str, proc: str, args: tuple) -> None:
        costs = self.database.costs
        root = self.database.submit(reactor, proc, *args,
                                    on_done=self._on_done)
        # Client-side overheads belong to the commit+input-gen bucket
        # of the latency breakdown (they are not part of the
        # sub-transaction cost model of Figure 3).
        root.charge("commit_input_gen",
                    costs.input_gen + costs.client_send)
        self.issued += 1

    def _on_done(self, root: RootTransaction, committed: bool,
                 reason: str | None, result: Any) -> None:
        costs = self.database.costs
        self.busy_time += costs.client_receive
        root.charge("commit_input_gen", costs.client_receive)
        self.database.scheduler.after(
            costs.client_receive, self._record, root, committed, reason)

    def _record(self, root: RootTransaction, committed: bool,
                reason: str | None) -> None:
        stats = root.make_stats(
            end_time=self.database.scheduler.now,
            committed=committed,
            abort_reason=reason,
        )
        # Latency includes input generation (paper Section 4.1.2).
        stats.start = self._issue_start
        self.stats.append(stats)
        self._issue()


def spawn_workers(database: ReactorDatabase, n_workers: int,
                  txn_factory_for: Callable[[int], TxnFactory],
                  deadline: float, seed: int = 42) -> list[Worker]:
    """Create and start ``n_workers`` closed-loop workers."""
    workers = []
    for i in range(n_workers):
        worker = Worker(i, database, txn_factory_for(i), deadline,
                        seed=seed)
        worker.start()
        workers.append(worker)
    return workers
