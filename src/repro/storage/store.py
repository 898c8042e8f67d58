"""The per-database storage engine state.

:class:`StorageCoordinator` — one per database: the pinned-snapshot
set of in-flight read-only roots (the source of the GC watermark
install paths consult) and the :class:`VersionStats` counters behind
``database.version_stats()``.  The records themselves live in each
:class:`~repro.relational.table.Table`'s ``records`` dict.

The coordinator is deliberately dumb about *when* snapshots pin: the
runtime pins at the first data operation of a snapshot-read root (see
``ReactorDatabase.begin_snapshot_session``) and unpins at root
completion, so ``keep_watermark()`` — the minimum pinned snapshot TID
— advances exactly with the in-flight set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class VersionStats:
    """Counters behind ``database.version_stats()``."""

    #: superseded versions pushed onto chains (snapshot readers in
    #: flight at install time).
    versions_created: int = 0
    #: versions dropped by watermark-driven GC (install-time pruning
    #: plus explicit sweeps).
    versions_gced: int = 0
    #: read-only roots that pinned a snapshot.
    snapshot_roots: int = 0
    #: individual reads (point + scan rows) served from snapshots,
    #: counted when their root unpins.
    snapshot_reads: int = 0
    #: read-only roots that aborted.  Under ``snapshot_reads`` this
    #: stays 0: snapshot readers never validate and never conflict.
    read_only_aborts: int = 0


class StorageCoordinator:
    """Pinned snapshots, GC watermark, and version counters of one
    database (primaries and replicas share one coordinator)."""

    __slots__ = ("pinned", "stats")

    def __init__(self) -> None:
        #: root txn id -> (pinned snapshot TID, scope).  Scope is
        #: ``None`` for primary-prefix snapshots and the serving
        #: replica container for replica-routed ones — a replica read
        #: can never touch primary tables (and vice versa), so each
        #: scope retains only history its own readers can reach.
        self.pinned: dict[int, tuple[int, Any]] = {}
        self.stats = VersionStats()

    # -- table adoption -------------------------------------------------

    def adopt(self, reactor: Any, scope: Any = None) -> None:
        """Wire every table of ``reactor`` to this coordinator (called
        for bootstrap reactors, replica shadows, and migration
        successors alike).  ``scope`` matches the tables to the pins
        that can read them: ``None`` for primary tables, the owning
        replica container for replica shadows."""
        for table in reactor.catalog:
            table.versioning = self
            table.versioning_scope = scope

    # -- snapshot pinning ------------------------------------------------

    def pin(self, txn_id: int, snapshot_tid: int,
            scope: Any = None) -> None:
        self.pinned[txn_id] = (snapshot_tid, scope)
        self.stats.snapshot_roots += 1

    def unpin(self, txn_id: int, reads: int = 0) -> None:
        """Release a root's pin and count the ``reads`` it served."""
        self.pinned.pop(txn_id, None)
        self.stats.snapshot_reads += reads

    def rescope(self, old_scope: Any, new_scope: Any = None) -> None:
        """Move every pin in ``old_scope`` to ``new_scope``.

        Promotion re-homes a replica's tables into the primary scope;
        snapshot readers still in flight on that replica must follow,
        or installs on the promoted tables would GC versions those
        readers can still reach.
        """
        for txn_id, (tid, scope) in list(self.pinned.items()):
            if scope == old_scope:
                self.pinned[txn_id] = (tid, new_scope)

    def keep_watermark(self, scope: Any = None) -> int | None:
        """The GC watermark for one scope: the minimum snapshot TID
        pinned *in that scope*, or ``None`` when it has no in-flight
        snapshot reader (retain nothing there)."""
        if not self.pinned:
            return None
        tids = [tid for tid, pin_scope in self.pinned.values()
                if pin_scope == scope]
        if not tids:
            return None
        return min(tids)

    # -- counters ---------------------------------------------------------

    def note_versions(self, created: int, pruned: int) -> None:
        if created:
            self.stats.versions_created += created
        if pruned:
            self.stats.versions_gced += pruned

    def note_read_only_abort(self) -> None:
        self.stats.read_only_aborts += 1
