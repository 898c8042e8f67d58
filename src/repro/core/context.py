"""Execution contexts for reactor procedures.

A :class:`ReactorContext` is the first argument of every procedure.  It
provides:

* **the record-manager interface over the reactor's own relations**
  (paper Section 3) — six verbs, each naming its table first:
  :meth:`lookup`, :meth:`multi_lookup`, :meth:`select`,
  :meth:`insert`, :meth:`update`, :meth:`delete` — executed under the
  root transaction's CC session (read-your-writes, checked at commit);
* **asynchronous procedure calls to other reactors** — ``yield
  ctx.call(name, proc, *args)`` returns a future, ``yield
  ctx.get(future)`` waits on it (paper syntax: ``proc(args) on reactor
  name``);
* **simulated computation** — ``yield ctx.compute(micros)`` for CPU
  kernels such as ``sim_risk``;
* utilities: :meth:`my_name`, :attr:`now`, :attr:`rng`, :meth:`abort`.

Data operations do not need ``yield``: they execute immediately for
data purposes and accrue simulated CPU cost that the executor charges
at the next suspension point.  All cross-reactor state access *must*
go through :meth:`call` — the context physically cannot reach another
reactor's tables, enforcing state encapsulation by construction.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping

from repro.concurrency.base import Row
from repro.errors import UserAbort
from repro.relational.predicate import ALWAYS, Predicate
from repro.runtime.effects import CallEffect, ChargeEffect, GetEffect
from repro.runtime.futures import SimFuture


class ReactorContext:
    """Procedure-facing API bound to one reactor within one frame."""

    __slots__ = ("_reactor", "_root", "_task", "_costs", "_rng",
                 "_session_cache", "_tables", "_factor")

    def __init__(self, reactor: Any, root: Any, task: Any,
                 costs: Any) -> None:
        self._reactor = reactor
        self._root = root
        self._task = task
        self._costs = costs
        self._rng: random.Random | None = None
        self._session_cache: Any = None
        #: The reactor's own relations by name: what every data
        #: operation resolves its table through.
        self._tables = reactor.catalog.tables
        #: Data-operation cost multiplier of this frame.  The executor
        #: fixes it at the transaction's first touch of the reactor
        #: (cache-affinity model), always before it builds a context
        #: there, and it never changes afterwards.
        self._factor = root.touched_reactors.get(reactor.name, 1.0)

    # ------------------------------------------------------------------
    # Identity and environment
    # ------------------------------------------------------------------

    def my_name(self) -> str:
        """The name of the reactor this procedure executes on."""
        return self._reactor.name

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._task.executor.scheduler.now

    @property
    def rng(self) -> random.Random:
        """Deterministic per-transaction random stream.

        Procedures may be nondeterministic (the paper allows it, citing
        MCDB-R); seeding from the root transaction id keeps whole
        simulation runs reproducible anyway.
        """
        if self._rng is None:
            self._rng = random.Random(
                f"txn-{self._root.txn_id}/{self._reactor.name}")
        return self._rng

    @property
    def costs(self) -> Any:
        return self._costs

    def abort(self, reason: str = "application abort") -> None:
        """Abort the root transaction (user-defined abort condition)."""
        raise UserAbort(reason)

    # ------------------------------------------------------------------
    # Cross-reactor asynchronous procedure calls
    # ------------------------------------------------------------------

    def call(self, reactor_name: str, proc_name: str, *args: Any,
             **kwargs: Any) -> CallEffect:
        """Asynchronous call: ``fut = yield ctx.call(...)``.

        The paper's ``proc(args) on reactor name`` syntax.  Yields a
        :class:`~repro.runtime.futures.SimFuture`; the call executes
        synchronously inline when the target reactor is served by the
        current transaction executor (self-calls and shared-everything
        deployments), asynchronously on the target executor otherwise.
        """
        return CallEffect(reactor_name, proc_name, args, kwargs)

    def get(self, future: SimFuture) -> GetEffect:
        """Wait for a future: ``value = yield ctx.get(fut)``."""
        return GetEffect(future)

    def compute(self, micros: float) -> ChargeEffect:
        """Consume ``micros`` of simulated CPU: ``yield ctx.compute(x)``."""
        return ChargeEffect(micros, "exec")

    def simulate_random_work(self, n_randoms: int) -> ChargeEffect:
        """CPU charge equivalent to generating ``n_randoms`` numbers.

        Models the ``sim_risk`` kernel and TPC-C stock-replenishment
        delays exactly as the paper's experiments do.
        """
        return ChargeEffect(n_randoms * self._costs.rand_cost, "exec")

    # ------------------------------------------------------------------
    # The record-manager interface on the encapsulated relations
    # ------------------------------------------------------------------

    # Every operation below is one call into the session: the table
    # is one probe of the reactor's own relations (a miss raises the
    # catalog's typed error), the session is the frame's, scalar keys
    # are wrapped in place, and the simulated CPU (unit cost x records
    # examined x the frame's cold-access factor; a point operation
    # examines one record per key) accrues on the task for the
    # executor to charge at the next suspension point.

    def _open_session(self) -> Any:
        # Cached for the context's lifetime (one frame): the session
        # is fixed per (root, container) and recorders attach between
        # runs, never mid-frame.
        session = self._root.session_for(self._reactor.container)
        recorder = self._reactor.container.database.history_recorder
        if recorder is not None:
            session = recorder.wrap(session, self._reactor, self._task)
        self._session_cache = session
        return session

    def lookup(self, table_name: str, pk: Any) -> Row | None:
        """Point read by primary key; ``None`` when absent."""
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        row = session.read(table, pk if isinstance(pk, tuple) else (pk,))
        self._task.pending_charge += self._costs.read_cost * self._factor
        return row

    def multi_lookup(self, table_name: str,
                     pks: Iterable[Any]) -> list[Row | None]:
        """Vectorized point reads by primary key on one relation.

        Returns images aligned with ``pks`` (``None`` for missing
        keys).  Equivalent to ``[lookup(table_name, pk) for pk in
        pks]`` — identical footprint, identical recorded history,
        identical total CPU charge — but served by the session's
        single-pass :meth:`~repro.concurrency.base.CCSession.multi_read`.
        """
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        keys = [pk if isinstance(pk, tuple) else (pk,) for pk in pks]
        rows = session.multi_read(table, keys)
        self._task.pending_charge += self._costs.read_cost * \
            max(len(keys), 1) * self._factor
        return rows

    def select(self, table_name: str, where: Predicate = ALWAYS,
               index: str | None = None, low: tuple | None = None,
               high: tuple | None = None, reverse: bool = False,
               limit: int | None = None) -> list[Row]:
        """Predicate/range scan over one relation of this reactor."""
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        result = session.scan(
            table, where, index=index, low=low, high=high,
            reverse=reverse, limit=limit)
        self._task.pending_charge += self._costs.scan_row_cost * \
            max(result.examined, 1) * self._factor
        return result.rows

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        session.insert(table, row)
        self._task.pending_charge += self._costs.insert_cost * self._factor

    def update(self, table_name: str, pk: Any,
               values: Mapping[str, Any]) -> Row:
        """Read-modify-write one row by primary key; returns the new
        image.  Raises :class:`~repro.errors.RecordNotFound` if absent."""
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        new_row = session.update(
            table, pk if isinstance(pk, tuple) else (pk,), values)
        self._task.pending_charge += self._costs.write_cost * self._factor
        return new_row

    def delete(self, table_name: str, pk: Any) -> None:
        table = self._tables[table_name]
        session = self._session_cache or self._open_session()
        session.delete(table, pk if isinstance(pk, tuple) else (pk,))
        self._task.pending_charge += self._costs.delete_cost * self._factor
