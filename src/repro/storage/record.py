"""Versioned records (Silo-style TID words) with version chains.

Each committed row lives in exactly one :class:`VersionedRecord` — the
*head* (newest committed version) of a per-key version chain.  The
record carries the transaction id (TID) of the transaction that last
wrote it; OCC read sets remember ``(record, tid_at_read)`` pairs and
validation detects concurrent writers by comparing the current TID.

Multi-versioning: when snapshot readers are in flight (the store's
keep-watermark is set), installing a new image pushes the superseded
head onto the chain as a :class:`RecordVersion` instead of discarding
it.  :meth:`VersionedRecord.version_at` is the visibility rule — the
newest version with ``tid <= as_of_tid`` — and
:meth:`VersionedRecord.prune_chain` is the watermark-driven GC:
versions older than the newest version at or below the watermark can
never be observed again (every pinned snapshot is at or above the
watermark) and are dropped.  With no watermark (no snapshot readers
pinned) no history is retained at all, so single-version deployments
keep their original memory profile.

There is no lock bit in the TID word: OCC validates and installs
inside the commit's one ``guarded`` call (one atomic section per
commit), and 2PL keeps its locks in its own lock table.
"""

from __future__ import annotations

from typing import Any


class RecordVersion:
    """One superseded committed version on a record's chain.

    ``deleted`` marks a tombstone version: the key did not exist at
    snapshots that resolve to it.  ``prev`` links to the next-older
    version (``None`` at the chain's end).
    """

    __slots__ = ("value", "tid", "deleted", "prev")

    def __init__(self, value: dict[str, Any], tid: int, deleted: bool,
                 prev: "RecordVersion | None") -> None:
        self.value = value
        self.tid = tid
        self.deleted = deleted
        self.prev = prev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "deleted" if self.deleted else "live"
        return f"RecordVersion(tid={self.tid}, {state})"


class VersionedRecord:
    """Head of one row's version chain: the latest committed state."""

    __slots__ = ("key", "value", "tid", "deleted", "prev")

    def __init__(self, key: tuple, value: dict[str, Any], tid: int) -> None:
        self.key = key
        self.value = value
        self.tid = tid
        self.deleted = False
        #: Next-older committed version (``None`` when no snapshot
        #: reader could still need history).
        self.prev: RecordVersion | None = None

    def install(self, value: dict[str, Any], tid: int,
                keep_watermark: int | None = None) -> tuple[int, int]:
        """Install a new committed version at the head of the chain.

        Ownership transfer, not copy: ``value`` must be a dict the
        caller relinquishes (the schema validation every install path
        runs returns a fresh dict, so no defensive copy is needed in
        this hot path).  ``keep_watermark`` is the GC watermark from
        the in-flight snapshot set: when set, the superseded head is
        pushed onto the chain for snapshot readers and the chain is
        pruned below the watermark; when ``None`` no reader can need
        history and the chain is dropped.  Returns ``(versions_kept,
        versions_pruned)`` for the storage counters.
        """
        kept = self._supersede(keep_watermark)
        self.value = value
        self.tid = tid
        self.deleted = False
        return kept, self.prune_chain(keep_watermark)

    def mark_deleted(self, tid: int,
                     keep_watermark: int | None = None) -> tuple[int, int]:
        """Tombstone the record; readers holding it fail validation.

        Like :meth:`install`, the superseded image joins the chain when
        snapshot readers may still need it.
        """
        kept = self._supersede(keep_watermark)
        self.tid = tid
        self.deleted = True
        return kept, self.prune_chain(keep_watermark)

    def _supersede(self, keep_watermark: int | None) -> int:
        """Push the current head onto the chain when a pinned snapshot
        may still need it — the one retention rule both the update and
        the delete path share.  Returns the number of versions kept."""
        if keep_watermark is None:
            return 0
        self.prev = RecordVersion(self.value, self.tid, self.deleted,
                                  self.prev)
        return 1

    # -- visibility (the snapshot read rule) ----------------------------

    def version_at(self, as_of_tid: int) -> tuple[dict[str, Any] | None, int]:
        """The row image visible at snapshot ``as_of_tid``.

        Returns ``(image, tid)`` where ``image`` is a copy of the
        newest version with ``tid <= as_of_tid`` (``None`` when that
        version is a tombstone or no version qualifies) and ``tid`` is
        the TID of the version that resolved the read (0 when none
        did).
        """
        if self.tid <= as_of_tid:
            return (None if self.deleted else dict(self.value)), self.tid
        node = self.prev
        while node is not None:
            if node.tid <= as_of_tid:
                return ((None if node.deleted else dict(node.value)),
                        node.tid)
            node = node.prev
        return None, 0

    def visible_at(self, as_of_tid: int) -> dict[str, Any] | None:
        """Just the image part of :meth:`version_at`."""
        return self.version_at(as_of_tid)[0]

    # -- watermark-driven GC --------------------------------------------

    def chain_length(self) -> int:
        """Number of superseded versions retained behind the head."""
        count = 0
        node = self.prev
        while node is not None:
            count += 1
            node = node.prev
        return count

    def prune_chain(self, watermark: int | None) -> int:
        """Drop chain versions no pinned snapshot can observe.

        Every pinned snapshot is at or above ``watermark`` (the minimum
        pinned snapshot TID), so only the newest version with ``tid <=
        watermark`` — or the head itself, if it qualifies — can still
        resolve a read; everything older is unreachable.  ``None``
        means no snapshot is pinned: the whole chain goes.  Returns the
        number of versions dropped.
        """
        if watermark is None or self.tid <= watermark:
            dropped = self.chain_length()
            self.prev = None
            return dropped
        node: Any = self
        while node.prev is not None:
            if node.prev.tid <= watermark:
                cut = node.prev.prev
                node.prev.prev = None
                dropped = 0
                while cut is not None:
                    dropped += 1
                    cut = cut.prev
                return dropped
            node = node.prev
        return 0

    def snapshot(self) -> dict[str, Any]:
        """A defensive copy of the committed row image."""
        return dict(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "deleted" if self.deleted else "live"
        return (f"VersionedRecord(key={self.key!r}, tid={self.tid}, "
                f"{state}, chain={self.chain_length()})")
