"""Two-phase locking (the ``"2pl_nowait"`` / ``"2pl_waitdie"`` schemes).

Strict two-phase locking with per-record reader/writer locks:

* every committed record a transaction reads is shared-locked at the
  read; every record it writes is exclusive-locked when the write
  intent is buffered (growing phase);
* phantom protection is by *structure locks*: scans and read-misses
  shared-lock the table or index node they consulted, inserts and
  deletes exclusive-lock the table node plus every index node their
  installation will restructure (updates only the indexes whose key
  actually changes);
* all locks are held to commit/abort (shrinking phase happens entirely
  inside :meth:`~repro.concurrency.base.ConcurrencyControl.install` /
  ``abort``), which makes every committed history conflict-serializable
  in lock-acquisition order.

Because the simulated runtime is cooperative and data operations are
synchronous (they cannot suspend a task mid-operation), a conflicting
request can never *block* — it must be resolved immediately.  Two
deadlock-free policies are provided:

* **NO_WAIT** — the requester aborts on any conflict
  (:class:`~repro.errors.LockConflictAbort`);
* **WAIT_DIE** — the classic age-based policy adapted to a
  non-blocking runtime: a requester *younger* than any conflicting
  holder dies (:class:`~repro.errors.DeadlockAvoidanceAbort`), exactly
  as in wait-die; a requester *older* than every holder — which
  wait-die would allow to wait — instead *wounds* the younger holders
  (they are marked doomed, their locks are released, and they abort at
  their next data operation or at validation with
  :class:`~repro.errors.WoundAbort`).  The age order still guarantees
  deadlock freedom and no transaction is ever starved by a younger
  one; wound and die events are counted separately in the shared
  :class:`~repro.concurrency.base.CCStats`.

A wounded transaction never commits: its session is flagged, every
subsequent data operation raises, and commit-time validation re-checks
the flag (covering victims that finish without touching data again).
Releasing a victim's locks early is safe precisely because it is
doomed — no write it buffered is ever installed.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    DeadlockAvoidanceAbort,
    LockConflictAbort,
    SimulationError,
    WoundAbort,
)
from repro.concurrency.base import (
    CCSession,
    CCStats,
    ConcurrencyControl,
    DELETE,
    INSERT,
    WriteIntent,
)
from repro.concurrency.tid import EpochManager
from repro.relational.table import Table
from repro.storage.record import VersionedRecord

NO_WAIT = "no_wait"
WAIT_DIE = "wait_die"


class _LockEntry:
    """Lock state of one lockable object (record or structure node)."""

    __slots__ = ("obj", "shared", "exclusive")

    def __init__(self, obj: Any) -> None:
        self.obj = obj
        #: sessions holding the lock in shared mode
        self.shared: dict[int, "LockingSession"] = {}
        self.exclusive: "LockingSession | None" = None

    def holders(self) -> list["LockingSession"]:
        out = list(self.shared.values())
        if self.exclusive is not None and \
                self.exclusive.txn_id not in self.shared:
            out.append(self.exclusive)
        return out

    def empty(self) -> bool:
        return not self.shared and self.exclusive is None


class LockManager:
    """Per-container lock table over records and structure nodes.

    Keys are object identities: a lock protects one
    :class:`~repro.storage.record.VersionedRecord` (row locks) or one
    table/index object (structure locks).  Entries are created on first
    acquisition and dropped when the last holder releases.
    """

    __slots__ = ("policy", "stats", "_entries")

    def __init__(self, policy: str, stats: CCStats) -> None:
        if policy not in (NO_WAIT, WAIT_DIE):
            raise SimulationError(f"unknown 2PL policy {policy!r}")
        self.policy = policy
        self.stats = stats
        self._entries: dict[int, _LockEntry] = {}

    # ------------------------------------------------------------------

    def acquire(self, session: "LockingSession", obj: Any,
                exclusive: bool) -> None:
        """Grant ``session`` a lock on ``obj`` or raise a CC abort."""
        entry = self._entries.get(id(obj))
        if entry is None:
            entry = _LockEntry(obj)
            self._entries[id(obj)] = entry

        if exclusive:
            conflicting = [s for s in entry.holders() if s is not session]
        elif entry.exclusive is not None and \
                entry.exclusive is not session:
            conflicting = [entry.exclusive]
        else:
            conflicting = []

        if conflicting:
            self._resolve_conflict(session, conflicting)
            # Conflict resolved by wounding every holder: their locks
            # were force-released, which may have emptied and dropped
            # this entry from the table — re-anchor before granting,
            # or the grant lands on a detached entry and a later
            # requester would see the object as unlocked.
            entry = self._entries.get(id(obj))
            if entry is None:
                entry = _LockEntry(obj)
                self._entries[id(obj)] = entry

        if exclusive:
            entry.shared.pop(session.txn_id, None)  # S -> X upgrade
            entry.exclusive = session
        elif entry.exclusive is not session:
            entry.shared[session.txn_id] = session
        session._held.add(id(obj))

    def _resolve_conflict(self, session: "LockingSession",
                          conflicting: list["LockingSession"]) -> None:
        if self.policy == NO_WAIT:
            self.stats.lock_conflicts += 1
            raise LockConflictAbort(
                f"txn {session.txn_id} lock conflict with "
                f"{sorted(s.txn_id for s in conflicting)} (NO_WAIT)"
            )
        # WAIT_DIE: younger requesters die; an older requester (which
        # classic wait-die would let wait) wounds the younger holders
        # instead, since this runtime cannot block a data operation.
        older = [s for s in conflicting if s.txn_id < session.txn_id]
        if older:
            self.stats.deadlock_avoidance += 1
            raise DeadlockAvoidanceAbort(
                f"txn {session.txn_id} dies: conflicting lock held by "
                f"older txn {sorted(s.txn_id for s in older)} (WAIT_DIE)"
            )
        for victim in conflicting:
            self.wound(victim)

    def wound(self, victim: "LockingSession") -> None:
        """Doom a younger lock holder and free everything it holds.

        The doom is transaction-wide: a multi-container victim's
        sessions in *other* containers observe it through the shared
        root, so a doomed transaction stops acquiring (and wounding)
        everywhere, not just where it was wounded.
        """
        if victim.finished:
            return
        if not victim.is_doomed():
            victim.wounded = True
            if victim.owner is not None:
                victim.owner.doomed = True
            self.stats.wounds += 1
        # Free whatever the victim still holds *here* even when it was
        # already doomed elsewhere: a multi-container victim's locks in
        # this container are only released by a wound in this container
        # or by its final abort, and granting over a stale entry would
        # leave a dead holder that spuriously conflicts later.
        self.release_all(victim)

    def is_locked(self, obj: Any) -> bool:
        """Is any session currently holding a lock on ``obj``?"""
        return id(obj) in self._entries

    def release_all(self, session: "LockingSession") -> None:
        for key in session._held:
            entry = self._entries.get(key)
            if entry is None:
                continue
            entry.shared.pop(session.txn_id, None)
            if entry.exclusive is session:
                entry.exclusive = None
            if entry.empty():
                del self._entries[key]
        session._held.clear()

    def held_count(self) -> int:
        """Number of live lock entries (diagnostics/tests)."""
        return len(self._entries)


class LockingSession(CCSession):
    """2PL session: the footprint hooks acquire locks eagerly."""

    __slots__ = ("_locks", "_held", "_placeholders", "wounded")

    def __init__(self, txn_id: int, container_id: int,
                 locks: LockManager) -> None:
        super().__init__(txn_id, container_id)
        self._locks = locks
        #: id(obj) of every entry this session holds a lock on.
        self._held: set[int] = set()
        #: Insert placeholders this session materialized in tables;
        #: reclaimed at release unless revived by a committed insert.
        self._placeholders: list[tuple[Table, VersionedRecord]] = []
        #: Set when an older WAIT_DIE requester preempted this session.
        self.wounded = False

    def is_doomed(self) -> bool:
        """Wounded here, or anywhere else in the same root transaction."""
        return self.wounded or (
            self.owner is not None
            and getattr(self.owner, "doomed", False))

    # -- scheme hooks ---------------------------------------------------

    def _begin_op(self) -> None:
        if self.is_doomed():
            raise WoundAbort(
                f"txn {self.txn_id} was wounded by an older transaction"
            )

    def _register_read(self, record: VersionedRecord) -> None:
        self._locks.acquire(self, record, exclusive=False)
        super()._register_read(record)

    def _register_node(self, node: Any) -> None:
        self._locks.acquire(self, node, exclusive=False)
        super()._register_node(node)

    def _set_intent(self, intent: WriteIntent) -> None:
        self._lock_for_intent(intent)
        super()._set_intent(intent)

    # -- growing-phase lock acquisition ---------------------------------

    def _lock_for_intent(self, intent: WriteIntent) -> None:
        table = intent.table
        if intent.kind == INSERT:
            # Exclusive structure locks on the table and every index
            # (installation restructures them all), plus the insert
            # placeholder so concurrent inserters of the same key
            # conflict here instead of at install time.
            self._lock_structures(table, table.indexes.values())
            placeholder = table.ensure_placeholder(intent.pk)
            self._placeholders.append((table, placeholder))
            self._locks.acquire(self, placeholder, exclusive=True)
            intent.record = placeholder
        elif intent.kind == DELETE:
            assert intent.record is not None
            self._locks.acquire(self, intent.record, exclusive=True)
            self._lock_structures(table, table.indexes.values())
        else:  # UPDATE (of a committed record or of an own insert)
            if intent.record is not None:
                self._locks.acquire(self, intent.record, exclusive=True)
                assert intent.new_value is not None
                self._lock_structures(table, [
                    idx for idx in table.indexes.values()
                    if idx.key_of(intent.record.value)
                    != idx.key_of(intent.new_value)
                ], include_table=False)
            # Updating an own (uncommitted) insert needs no new locks:
            # the placeholder and all structures are exclusively held
            # since the insert was buffered.

    def _lock_structures(self, table: Table, indexes,
                         include_table: bool = True) -> None:
        if include_table:
            self._locks.acquire(self, table, exclusive=True)
        for idx in indexes:
            self._locks.acquire(self, idx, exclusive=True)

    def max_observed_tid(self) -> int:
        """The TID floor: the newest TID among the records this
        session read or writes (insert placeholders included)."""
        best = max(self._reads.values(), default=0)
        for intent in self._writes.values():
            record = intent.record
            if record is not None and record.tid > best:
                best = record.tid
        return best

    # -- shrinking phase ------------------------------------------------

    def release_locks(self) -> None:
        """Release every lock, then remove the placeholders this
        session created that no committed insert revived (aborted
        inserts, cancelled insert + delete pairs), so they don't
        permanently grow ``Table.records``.  A placeholder another
        session still holds a lock on is left in place: that
        concurrent inserter of the same key may yet revive it."""
        locks = self._locks
        locks.release_all(self)
        for table, record in self._placeholders:
            if not locks.is_locked(record):
                table.discard_placeholder(record)
        self._placeholders.clear()


class LockingCC(ConcurrencyControl):
    """Per-container 2PL engine parameterized by conflict policy."""

    __slots__ = ("policy", "locks")

    def __init__(self, container_id: int, epochs: EpochManager,
                 policy: str = NO_WAIT) -> None:
        super().__init__(container_id, epochs)
        self.policy = policy
        self.locks = LockManager(policy, self.stats)

    def begin_session(self, txn_id: int) -> LockingSession:
        return LockingSession(txn_id, self.container_id, self.locks)

    def validate(self, session: CCSession) -> int:
        """Commit-time check: locks were acquired during execution, so
        validation only re-checks the doom flag (a victim that never
        touched data again after being wounded is caught here).
        Snapshot sessions (the ``snapshot_reads`` toggle) hold no
        locks and cannot be wounded — nothing to check, and nothing
        counted."""
        if self.is_snapshot_session(session):
            return 0
        self.stats.validations += 1
        assert isinstance(session, LockingSession)
        if session.is_doomed():
            raise WoundAbort(
                f"txn {session.txn_id} was wounded before commit"
            )
        return session.max_observed_tid()

    # Commit-phase pricing is deliberately the one (OCC-shaped) formula
    # of ``TransactionExecutor._commit_root``: the simulator charges no
    # per-lock fee during execution, so 2PL's shrinking-phase walk over
    # the read/write footprint is priced like OCC's validation walk.
    # Pricing it cheaper would hand 2PL a free-locking artifact in
    # scheme ablations; this way benchmark differences come from aborts
    # and conflicts, not from the cost model.


__all__ = [
    "LockManager",
    "LockingCC",
    "LockingSession",
    "NO_WAIT",
    "WAIT_DIE",
]
