"""Root-transaction bookkeeping.

A :class:`RootTransaction` tracks everything the runtime needs about
one top-level procedure invocation: per-container CC sessions,
sub-transaction numbering, cache-warmth of touched reactors, the
latency breakdown by cost-model category, and the commit outcome.

Latency breakdown categories follow Figure 6 of the paper:

* ``sync_execution`` — processing logic and synchronous
  sub-transactions (the first two cost-equation components);
* ``cs`` / ``cr`` — communication costs to send invocations and
  receive results;
* ``async_execution`` — time blocked on overlapped asynchronous
  sub-transactions (the ``max(...)`` component);
* ``commit_input_gen`` — commit protocol (OCC + 2PC), input generation
  and client dispatch overheads (applies to root transactions only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.concurrency.base import CCSession, ConcurrencyControl

CATEGORIES = (
    "sync_execution",
    "cs",
    "cr",
    "async_execution",
    "commit_input_gen",
)

_NO_CHARGES = dict.fromkeys(CATEGORIES, 0.0)


@dataclass(slots=True)
class TxnStats:
    """Measurement record for one finished root transaction."""

    txn_id: int
    procedure: str
    reactor: str
    committed: bool
    abort_reason: str | None
    start: float
    end: float
    breakdown: dict[str, float] = field(default_factory=dict)
    containers: int = 1
    remote_calls: int = 0
    reads: int = 0
    writes: int = 0
    user_abort: bool = False
    commit_tid: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


class RootTransaction:
    """Runtime state of one in-flight root transaction."""

    __slots__ = (
        "txn_id", "procedure", "reactor_name", "start_time",
        "sessions", "_subtxn_counter", "touched_reactors",
        "breakdown", "remote_calls", "finished",
        "user_abort", "effect_seq", "commit_tid",
        "doomed", "read_only", "reactor_refs", "snapshot_tid",
        "trace", "__weakref__",
    )

    def __init__(self, txn_id: int, procedure: str, reactor_name: str,
                 start_time: float) -> None:
        self.txn_id = txn_id
        self.procedure = procedure
        self.reactor_name = reactor_name
        self.start_time = start_time
        #: container id -> (manager, session)
        self.sessions: dict[int, tuple[ConcurrencyControl, CCSession]] = {}
        self._subtxn_counter = 0
        #: reactor name -> data-operation cost multiplier fixed at the
        #: transaction's first touch (cache-affinity model: 1.0 warm,
        #: up to cold_access_factor when fully cold).
        self.touched_reactors: dict[str, float] = {}
        #: The reactor *instances* behind ``touched_reactors``: online
        #: migration drains on per-instance in-flight root sets, which
        #: the executor clears through these references at completion.
        self.reactor_refs: list[Any] = []
        self.breakdown: dict[str, float] = dict(_NO_CHARGES)
        self.remote_calls = 0
        self.finished = False
        self.user_abort = False
        #: Set when a CC scheme condemned this transaction in *any*
        #: container (2PL wound): its sessions everywhere observe it.
        self.doomed = False
        #: Declared read-only (procedure annotation or submit flag):
        #: eligible for read-replica routing; writes abort at
        #: buffering time.
        self.read_only = False
        #: Begin-TID snapshot pinned for this root (multi-version
        #: snapshot reads); ``None`` until the first data operation of
        #: a snapshot-served read-only root, and forever for everything
        #: else.
        self.snapshot_tid: int | None = None
        self.commit_tid = 0
        #: :class:`~repro.telemetry.spans.TraceHandle` when this root
        #: was sampled for tracing; ``None`` otherwise (the common
        #: case — every instrumentation site guards on it).
        self.trace: Any = None
        #: Monotonic effect counter of the root task; used to classify
        #: future waits as sync vs async execution.
        self.effect_seq = 0

    def next_subtxn_id(self) -> int:
        self._subtxn_counter += 1
        return self._subtxn_counter

    def session_for(self, container: Any) -> CCSession:
        """The CC session in ``container``, created on first touch.

        Read-only roots get a snapshot session (pinned at their begin
        snapshot, no locks, no validation) when the deployment
        snapshots reads; everything else gets the container scheme's
        regular session.
        """
        entry = self.sessions.get(container.container_id)
        if entry is None:
            manager = container.concurrency
            session = None
            if self.read_only:
                database = getattr(container, "database", None)
                if database is not None:
                    session = database.begin_snapshot_session(
                        self, container)
            if session is None:
                session = manager.begin_session(self.txn_id)
            session.read_only = self.read_only
            # Dropped again when the session finishes (install/abort),
            # so a completed root is not a reference cycle.
            session.owner = self
            self.sessions[container.container_id] = (manager, session)
            return session
        return entry[1]

    def participants(self) -> list[tuple[ConcurrencyControl, CCSession]]:
        """The ``(manager, session)`` pairs in container-id order (the
        deterministic global validation order)."""
        return [self.sessions[cid] for cid in sorted(self.sessions)]

    def charge(self, category: str, micros: float) -> None:
        """Add ``micros`` to one latency-breakdown category.

        ``breakdown`` is pre-seeded with every entry of
        :data:`CATEGORIES`, so a misspelt category raises ``KeyError``
        here instead of minting a key that leaks into
        :attr:`TxnStats.breakdown`.
        """
        self.breakdown[category] += micros

    def total_reads(self) -> int:
        return sum(s.read_count for __, s in self.sessions.values())

    def total_writes(self) -> int:
        return sum(s.write_count for __, s in self.sessions.values())

    def make_stats(self, end_time: float, committed: bool,
                   abort_reason: str | None) -> TxnStats:
        return TxnStats(
            txn_id=self.txn_id,
            procedure=self.procedure,
            reactor=self.reactor_name,
            committed=committed,
            abort_reason=abort_reason,
            start=self.start_time,
            end=end_time,
            breakdown=dict(self.breakdown),
            containers=len(self.sessions),
            remote_calls=self.remote_calls,
            reads=self.total_reads(),
            writes=self.total_writes(),
            user_abort=self.user_abort,
            commit_tid=self.commit_tid,
        )
