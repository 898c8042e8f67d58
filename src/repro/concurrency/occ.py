"""Silo-style optimistic concurrency control (the ``"occ"`` scheme).

ReactDB reuses Silo's OCC scheme (paper Section 3.2): transactions read
committed record versions without locking, buffer writes locally, and
validate at commit.  Validation checks that every insert key is still
free, re-checks every read-set TID, and conservatively re-checks index
structure versions for scans (phantom protection).  On success, writes
are installed with a commit TID greater than every TID observed.

Silo locks the write set because its workers validate and install in
parallel.  Here every backend runs a commit's validate + install as one
atomic section (one call to the scheduler's ``guarded`` over the
participants: a plain call on the serial sim, the state lock plus
every participant's container lock on ``threads``), so validation is
one side-effect-free pass: no lock word, no insert placeholder,
nothing to release on abort.

The buffered record-manager machinery (read-your-writes overlay, scan
paths, write intents) lives in :class:`repro.concurrency.base.CCSession`
and is shared with the other schemes; :class:`OCCSession` layers the
optimistic read/node-version footprint on top and
:class:`ConcurrencyManager` owns validation and installation.
"""

from __future__ import annotations

from repro.errors import ReactorError, ValidationAbort
from repro.concurrency.base import (
    CCSession,
    ConcurrencyControl,
    INSERT,
    Row,
    ScanResult,
    WriteIntent,
)
from repro.relational.table import Table

__all__ = [
    "ConcurrencyManager",
    "OCCSession",
    "Row",
    "ScanResult",
    "WriteIntent",
]


class OCCSession(CCSession):
    """Read/write sets of one root transaction within one container.

    The base class already records the optimistic footprint (record
    TIDs at first read, structure versions at scan / read-miss); OCC
    needs no per-operation work beyond that, so the session is the base
    behaviour unchanged — validation interprets the footprint.
    """

    #: The manager's :class:`~repro.concurrency.base.CCStats`.
    __slots__ = ("stats",)

    def _committed_duplicate(self, table: Table,
                             pk: tuple) -> ReactorError:
        # A committed row holds the key while one of this
        # transaction's reads is stale: the key came from state a
        # concurrent committer has since moved (TPC-C's history key
        # from ``w_h_count``, an order line's from ``d_next_o_id``).
        # Validation would fail the transaction anyway, so it aborts
        # now as the CC conflict it is, not as a user error.
        for record, tid_seen in self._reads.items():
            if record.tid != tid_seen:
                self.stats.validation_failures += 1
                return ValidationAbort(
                    f"stale read of {record.key!r} in txn "
                    f"{self.txn_id}: a committed row holds insert key "
                    f"{pk!r} in {table.name!r}"
                )
        return super()._committed_duplicate(table, pk)


class ConcurrencyManager(ConcurrencyControl):
    """Per-container OCC engine: validation, installation, TIDs."""

    __slots__ = ()

    def begin_session(self, txn_id: int) -> OCCSession:
        # Set here, not in an __init__ override: no extra call per
        # session on the point path.
        session = OCCSession(txn_id, self.container_id)
        session.stats = self.stats
        return session

    def validate(self, session: CCSession) -> int:
        """Phase-1 validation: one pass, no side effects.

        Returns the TID floor for the commit TID: the newest TID the
        transaction observed (its reads, and any tombstone its inserts
        replace).  Raises :class:`ValidationAbort` on conflict, checking
        in a fixed order so the reason is deterministic: insert keys
        (in write-set order), then reads, then phantoms.
        """
        if self.is_snapshot_session(session):
            return 0
        self.stats.validations += 1
        floor = 0
        try:
            if session._writes:
                for intent in session.sorted_intents():
                    if intent.kind != INSERT:
                        continue
                    record = intent.table.records.get(intent.pk)
                    if record is None:
                        continue
                    if not record.deleted:
                        raise ValidationAbort(
                            f"concurrent insert won for key "
                            f"{intent.pk!r} in {intent.table.name!r}"
                        )
                    if record.tid > floor:
                        floor = record.tid
            for record, tid_seen in session._reads.items():
                if record.tid != tid_seen:
                    raise ValidationAbort(
                        f"stale read of {record.key!r} in txn "
                        f"{session.txn_id}"
                    )
                if tid_seen > floor:
                    floor = tid_seen
            for node, version_seen in session._node_checks.values():
                if node.structure_version != version_seen:
                    raise ValidationAbort(
                        "phantom: index/table structure changed under a "
                        f"scan of txn {session.txn_id}"
                    )
        except ValidationAbort:
            self.stats.validation_failures += 1
            raise
        return floor
