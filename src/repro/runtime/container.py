"""Database containers.

A container (paper Section 3.1) abstracts a portion of a machine with
its own storage and transactional consistency mechanism — the
deployment-selected concurrency-control scheme (OCC, 2PL, or
passthrough; see :mod:`repro.concurrency.base`).  Containers
are isolated: they never share data, and each owns disjoint compute
resources (transaction executors).  Reactors map to exactly one
container; within it, they are either served by any executor
(shared-everything) or pinned to one (shared-nothing).
"""

from __future__ import annotations

from typing import Any

from repro.concurrency.base import ConcurrencyControl
from repro.runtime.executor import TransactionExecutor


class Container:
    """One shared-memory region plus its transaction executors."""

    #: ``"replica"`` or ``"primary"`` on a replica container (see
    #: :mod:`repro.replication.replica`); ``None`` on a plain primary.
    role: str | None = None

    def __init__(self, container_id: int, database: Any,
                 concurrency: ConcurrencyControl) -> None:
        self.container_id = container_id
        self.database = database
        self.concurrency = concurrency
        self.executors: list[TransactionExecutor] = []
        self._route_counter = 0
        #: Set by failure injection / replication failover: a failed
        #: container accepts no new work, and transactions holding a
        #: session here abort at commit instead of installing.
        self.failed = False

    def add_executor(self, core_id: int) -> TransactionExecutor:
        executor = TransactionExecutor(
            executor_id=len(self.executors),
            core_id=core_id,
            container=self,
            scheduler=self.database.scheduler,
            costs=self.database.costs,
        )
        self.executors.append(executor)
        return executor

    def route(self, reactor: Any) -> TransactionExecutor:
        """Executor serving a sub-call on ``reactor`` in this container.

        Pinned reactors go to their executor; otherwise requests are
        load-balanced round-robin.
        """
        if reactor.pinned_executor is not None:
            return reactor.pinned_executor
        executor = self.executors[self._route_counter
                                  % len(self.executors)]
        self._route_counter += 1
        return executor

    # -- online migration support (repro.migration) --------------------

    def take_queued_roots(self, reactor: Any) -> list:
        """Remove and return queued-but-unstarted root tasks
        targeting ``reactor`` from this container's executors.

        The migration sweep parks these in the migration queue so they
        replay at the destination instead of racing the drain barrier.
        """
        taken: list = []
        for executor in self.executors:
            kept = []
            for task in executor.queue:
                if task.subtxn_id == 0 and task.reactor is reactor:
                    taken.append(task)
                else:
                    kept.append(task)
            if len(kept) != len(executor.queue):
                executor.queue.clear()
                executor.queue.extend(kept)
        return taken

    def has_queued_work_for(self, reactor: Any) -> bool:
        """Is any queued task (root or sub-call) still targeting
        ``reactor``?  Part of the migration drain barrier."""
        return any(task.reactor is reactor
                   for executor in self.executors
                   for task in executor.queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Container({self.container_id}, "
                f"executors={len(self.executors)})")
