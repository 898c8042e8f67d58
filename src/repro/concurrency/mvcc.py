"""Multi-version concurrency: the snapshot session.

The multi-version storage engine (:mod:`repro.storage`) retains
superseded record versions while snapshot readers are in flight.  This
module adds the read side, :class:`SnapshotSession` — the record
manager of one *read-only* root transaction within one container,
pinned at a begin snapshot TID.  Reads resolve through the version
chains (:meth:`~repro.storage.record.VersionedRecord.version_at`),
take no locks, register no read/node footprint, and therefore validate
nothing and can never abort; any mutation raises the typed
:class:`~repro.errors.ReadOnlyViolation`.  Scans examine the index's
current candidates plus every record still retaining history
(including tombstones — a key deleted after the snapshot is still
visible to it) and apply index-range semantics over the visible
images, so they need no versioned index structures.  A session counts
its reads; it reports each one, with the version TID it observed, only
while a history recorder has set :attr:`SnapshotSession.observer`.

Whether read-only roots get snapshot sessions is the deployment's
``snapshot_reads`` switch, and it works under *any* scheme: OCC or
2PL writers with snapshot readers is a sound combination because
readers touch no locks and no validated footprint.

Snapshot sessions participate in the generic commit path (2PC calls
``validate``/``install`` on them like on any session) but their empty
footprint makes both a no-op; the executor additionally prices their
commit with a zero validation walk
(:attr:`SnapshotSession.validation_read_count`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.concurrency.base import (
    CCSession,
    ScanResult,
    equality_probe,
    require_hash_equality,
)
from repro.errors import ReadOnlyViolation
from repro.relational.index import OrderedIndex
from repro.relational.predicate import ALWAYS, Predicate
from repro.relational.table import Table

__all__ = ["SnapshotSession"]


class SnapshotSession(CCSession):
    """Read-only record manager pinned at a begin-TID snapshot."""

    __slots__ = ("snapshot_tid", "snapshot_read_count", "observer")

    def __init__(self, txn_id: int, container_id: int,
                 snapshot_tid: int) -> None:
        super().__init__(txn_id, container_id)
        #: Every read resolves to the newest version with
        #: ``tid <= snapshot_tid``.
        self.snapshot_tid = snapshot_tid
        #: Reads served from this snapshot; the storage counters take a
        #: root's total once, when it unpins.
        self.snapshot_read_count = 0
        #: ``HistoryRecorder.record_snapshot_read`` while a recorder is
        #: attached, called as ``observer(session, table, pk,
        #: observed_tid)`` per row served; ``None`` otherwise.
        self.observer: Any = None

    # -- commit-path integration ----------------------------------------

    @property
    def read_count(self) -> int:
        return self.snapshot_read_count

    @property
    def validation_read_count(self) -> int:
        # Nothing is re-checked at commit: snapshot reads are final
        # the moment they resolve.
        return 0

    # -- the read-only record manager surface ---------------------------

    def read(self, table: Table, pk: tuple):
        """Point read at the pinned snapshot; never locks, never
        registers a footprint.  Visibility is the storage layer's one
        rule (:meth:`repro.relational.table.Table.version_at`)."""
        image, observed_tid = table.version_at(pk, self.snapshot_tid)
        self.snapshot_read_count += 1
        if self.observer is not None:
            self.observer(self, table, pk, observed_tid)
        return image

    def multi_read(self, table: Table, pks):
        """Vectorized snapshot point reads: one chain walk per key,
        method lookups hoisted, results preallocated.  Equivalent to
        ``[read(table, pk) for pk in pks]`` — including one observed
        read per key, in key order."""
        pks = list(pks)
        out: list[Any] = [None] * len(pks)
        snapshot_tid = self.snapshot_tid
        observer = self.observer
        get = table.records.get
        for i, pk in enumerate(pks):
            record = get(pk)
            if record is None:
                image, observed_tid = None, 0
            else:
                image, observed_tid = record.version_at(snapshot_tid)
            if observer is not None:
                observer(self, table, pk, observed_tid)
            out[i] = image
        self.snapshot_read_count += len(pks)
        return out

    def scan(self, table: Table, predicate: Predicate = ALWAYS,
             index: str | None = None, low: tuple | None = None,
             high: tuple | None = None, reverse: bool = False,
             limit: int | None = None) -> ScanResult:
        """Predicate/range scan over the snapshot's visible images.

        Indexed scans examine the index's *current* candidates plus
        the records still retaining chain versions — the only ones
        whose snapshot-visible image can differ from their live head
        (deleted or re-keyed after the snapshot) — so the work stays
        proportional to the match set plus the GC-bounded history, not
        the table.  Bounds and predicate apply to the *visible* image,
        and hash indexes keep the validated sessions' contract —
        equality only (``low == high``) — so a procedure behaves
        identically whichever session serves it.  Full scans iterate
        everything, tombstones included, in primary-key order.

        When no record of the table retains history (always, without
        concurrent writers), every visible image is its record's head,
        and a head agrees with its index entry: the probe's order is
        the result order, so no key is recomputed and nothing sorted.
        """
        idx = table.index(index) if index is not None else None
        ordered = isinstance(idx, OrderedIndex)
        if idx is None:
            probe = equality_probe(table, predicate)
            pks = None if probe is None else probe[0].lookup(probe[1])
        elif ordered:
            pks = idx.range(low, high)
        else:
            require_hash_equality(index, low, high)
            pks = idx.lookup(low)
        get = table.records.get
        rekey = False
        if pks is None:
            candidates: Any = table.all_records()
        elif chained := list(table.iter_chained()):
            # A record retaining history may show an image that left
            # (or entered) the probed key: every candidate is re-keyed
            # on its visible image, and the result sorted.
            rekey = True
            picked = {pk: record for pk in pks
                      if (record := get(pk)) is not None}
            for record in chained:
                picked.setdefault(record.key, record)
            candidates = picked.values()
        else:
            candidates = [record
                          for pk in (pks if ordered else sorted(pks))
                          if (record := get(pk)) is not None]
        rows: list[Any] = []
        examined = 0
        snapshot_tid = self.snapshot_tid
        matches = predicate.matches
        observer = self.observer
        key_of = idx.key_of if rekey and idx is not None else None
        for record in candidates:
            examined += 1
            image, observed_tid = record.version_at(snapshot_tid)
            if image is None or not matches(image):
                continue
            if key_of is not None:
                key = key_of(image)
                if not ordered:
                    # Exact-key match, like the validated path's
                    # idx.lookup(low).
                    if key != low:
                        continue
                else:
                    # The range rule of OrderedIndex.range, which the
                    # validated path's own-write overlay applies too.
                    if low is not None and key[:len(low)] < low:
                        continue
                    if high is not None and key[:len(high)] > high:
                        continue
                rows.append(((key, record.key), image))
            elif rekey:
                rows.append((record.key, image))
            else:
                rows.append(image)
            if observer is not None:
                observer(self, table, record.key, observed_tid)
        if rekey:
            rows.sort(key=lambda pair: pair[0])
            rows = [row for __, row in rows]
        self.snapshot_read_count += len(rows)
        if reverse:
            rows.reverse()
        if limit is not None:
            rows = rows[:limit]
        return ScanResult(rows, examined)

    # -- mutations: uniformly refused -----------------------------------

    def _refuse_write(self, op: str, table: Table) -> None:
        raise ReadOnlyViolation(
            f"snapshot transaction {self.txn_id} attempted {op} on "
            f"{table.name!r}"
        )

    def insert(self, table: Table, row: Mapping[str, Any]) -> None:
        self._refuse_write("insert", table)
        raise AssertionError("unreachable")

    def update(self, table: Table, pk: tuple,
               assignments: Mapping[str, Any]):
        self._refuse_write("update", table)
        raise AssertionError("unreachable")

    def delete(self, table: Table, pk: tuple) -> None:
        self._refuse_write("delete", table)
        raise AssertionError("unreachable")

