"""Transactional storage primitives: the multi-version engine.

The record manager interface the paper mentions ("pre-compiled stored
procedures ... against a record manager interface") is realized by the
CC sessions of :mod:`repro.concurrency`, which overlay uncommitted
writes on the committed :class:`~repro.relational.table.Table` state.

This package provides what those tables are made of (a table *is* its
record map: ``Table.records``, a dict of primary key → chain head):

* :class:`VersionedRecord` / :class:`RecordVersion` — per-key version
  chains carrying the Silo-style TID word every CC scheme operates on
  (no lock state: OCC validates and installs inside the commit's one
  ``guarded`` call, 2PL locks in its own lock table), with the
  snapshot visibility rule (``version_at``) and watermark-driven chain
  GC (``prune_chain``);
* :class:`StorageCoordinator` / :class:`VersionStats` — the
  per-database engine state: pinned snapshots of in-flight read-only
  roots (the GC watermark source) and version counters.
"""

from repro.storage.record import RecordVersion, VersionedRecord
from repro.storage.store import StorageCoordinator, VersionStats

__all__ = [
    "RecordVersion",
    "VersionedRecord",
    "StorageCoordinator",
    "VersionStats",
]
