"""In-memory tables of versioned records.

A :class:`Table` holds the *committed* state of one relation inside one
reactor: ``records``, a primary-key dict of per-key
:class:`~repro.storage.record.VersionedRecord` version chains, plus
secondary indexes.  All mutation goes through the ``install_*``
methods, which the concurrency-control layer calls during the write
phase of a commit — application code never touches tables directly (it
goes through the transactional record manager, which overlays
uncommitted writes).

Multi-versioning: when the owning database has snapshot readers in
flight (``versioning`` — the per-database
:class:`~repro.storage.store.StorageCoordinator` — reports a GC
watermark), installs push superseded images onto the version chains
instead of discarding them, and the snapshot read paths
(:meth:`read_as_of` / :meth:`rows_as_of` / :meth:`all_records`)
resolve visibility against a pinned snapshot TID.  Without snapshot
readers no history is retained.

The table keeps a per-table primary index structure version and
per-secondary-index versions; range and predicate scans validate these
at commit time for conservative phantom protection.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.errors import DuplicateKeyError, RecordNotFound
from repro.relational.index import HashIndex, OrderedIndex, build_index
from repro.relational.schema import TableSchema
from repro.storage.record import VersionedRecord

#: ``watermark`` default of the install paths: "ask
#: :meth:`Table.keep_watermark`" (``None`` is one of its answers).
_RESOLVE: Any = object()

#: The ``indexes`` of every table whose schema declares none: one
#: shared read-only map instead of an empty dict per table.
_NO_INDEXES: Mapping[str, Any] = MappingProxyType({})


class Table:
    """Committed storage for one relation of one reactor."""

    __slots__ = ("schema", "name", "owner", "records", "_chained",
                 "versioning", "versioning_scope", "structure_version",
                 "indexes")

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.name = schema.name
        #: Name of the reactor owning this table (set at reactor
        #: construction; used by durability/recovery addressing).
        self.owner: str | None = None
        #: The committed record map: primary key → version-chain head.
        #: Tombstoned heads are included — readers that want live
        #: records skip ``record.deleted``, as :meth:`get_record` does.
        self.records: dict[tuple, VersionedRecord] = {}
        #: Primary keys whose record has (or recently had) chain
        #: versions; membership is validated lazily by
        #: :meth:`iter_chained`, so pruned chains fall out without an
        #: explicit unhook.  ``None`` until the table's first retained
        #: version, so a never-versioned table holds no set (an empty
        #: one is 216 B).  Writers hold the container lock (the
        #: commit's ``guarded`` call), so creating it needs no lock of
        #: its own.
        self._chained: set[tuple] | None = None
        #: The owning database's storage coordinator, wired at
        #: bootstrap/adoption; ``None`` for standalone tables (no
        #: snapshot readers, no version bookkeeping).
        self.versioning: Any = None
        #: Which pins can read this table (see
        #: :meth:`~repro.storage.store.StorageCoordinator.adopt`):
        #: ``None`` on primaries, the replica container on shadows.
        self.versioning_scope: Any = None
        #: Bumped on insert/delete; conservative phantom guard for full
        #: and predicate scans over the primary index.
        self.structure_version = 0
        self.indexes: Mapping[str, HashIndex | OrderedIndex] = {
            spec.name: build_index(spec, schema.primary_key)
            for spec in schema.indexes
        } if schema.indexes else _NO_INDEXES

    def __len__(self) -> int:
        return len(self.records)

    def keep_watermark(self) -> int | None:
        """The GC watermark installs retain history down to (``None``
        when no snapshot reader is in flight).  A commit resolves it
        once per table and hands it to every install there."""
        if self.versioning is None:
            return None
        return self.versioning.keep_watermark(self.versioning_scope)

    def _note_versions(self, record: VersionedRecord, created: int,
                       pruned: int) -> None:
        if created:
            if self._chained is None:
                self._chained = set()
            self._chained.add(record.key)
        if self.versioning is not None:
            self.versioning.note_versions(created, pruned)

    # ------------------------------------------------------------------
    # Committed-state reads (used by the record manager under OCC).
    # ------------------------------------------------------------------

    def get_record(self, pk: tuple) -> VersionedRecord | None:
        """The live record for a primary key, or ``None``."""
        record = self.records.get(pk)
        if record is None or record.deleted:
            return None
        return record

    def iter_records(self) -> Iterator[VersionedRecord]:
        """All live records in primary-key order (deterministic scans)."""
        records = self.records
        for pk in sorted(records):
            record = records[pk]
            if not record.deleted:
                yield record

    def all_records(self) -> Iterator[VersionedRecord]:
        """All records — live *and* tombstoned — in primary-key order.

        Snapshot scans iterate this: a key deleted after a snapshot was
        pinned is invisible to current readers but still resolves
        through its version chain.
        """
        records = self.records
        for pk in sorted(records):
            yield records[pk]

    def iter_chained(self) -> Iterator[VersionedRecord]:
        """Records that currently retain chain versions — the only
        ones whose snapshot-visible image can differ from (or outlive)
        their live head — in primary-key order.  Lets indexed snapshot
        scans examine index candidates plus this (GC-bounded) set
        instead of the whole table."""
        chained = self._chained
        if chained is None:
            return
        records = self.records
        for pk in sorted(chained):
            record = records.get(pk)
            if record is None or record.prev is None:
                chained.discard(pk)
                continue
            yield record

    def index(self, name: str) -> HashIndex | OrderedIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise RecordNotFound(
                f"no index {name!r} on table {self.name!r}"
            ) from None

    def records_for_pks(self, pks: Any) -> list[VersionedRecord]:
        """Live records for an iterable of primary keys, in its order."""
        get = self.records.get
        return [record for pk in pks
                if (record := get(pk)) is not None
                and not record.deleted]

    # ------------------------------------------------------------------
    # Snapshot reads (the multi-version visibility surface).
    # ------------------------------------------------------------------

    def read_as_of(self, pk: tuple, as_of_tid: int) -> dict[str, Any] | None:
        """The row image of ``pk`` visible at snapshot ``as_of_tid``."""
        return self.version_at(pk, as_of_tid)[0]

    def version_at(self, pk: tuple,
                   as_of_tid: int) -> tuple[dict[str, Any] | None, int]:
        """The snapshot point-read rule — one definition for every
        caller: ``(visible image, resolving version TID)``, or
        ``(None, 0)`` when nothing qualifies.  The runtime's snapshot
        sessions and the inspection surface both route through here."""
        record = self.records.get(pk)
        if record is None:
            return None, 0
        return record.version_at(as_of_tid)

    def rows_as_of(self, as_of_tid: int) -> list[dict[str, Any]]:
        """Every row visible at snapshot ``as_of_tid``, in primary-key
        order — the consistent version cut migration copies read."""
        out = []
        for record in self.all_records():
            image = record.visible_at(as_of_tid)
            if image is not None:
                out.append(image)
        return out

    def live_version_count(self) -> int:
        """Superseded versions retained across this table's chains."""
        return sum(r.chain_length() for r in self.records.values())

    def gc_versions(self, watermark: int | None) -> int:
        """Prune all chains below ``watermark`` (explicit GC sweep;
        ``None`` drops all history).  Returns the versions dropped."""
        dropped = sum(r.prune_chain(watermark)
                      for r in self.records.values())
        if dropped and self.versioning is not None:
            self.versioning.note_versions(0, dropped)
        return dropped

    # ------------------------------------------------------------------
    # Write-phase installation (called by the CC layer at commit only).
    # ------------------------------------------------------------------

    # The install paths take ownership of the image they are handed
    # and install it as is — no re-validation, no copy.  Every image
    # that reaches them was born validated: write intents are built by
    # the record manager from a committed image plus
    # ``validate_assignments``-checked values (updates) or from
    # ``validate_row`` output (inserts), and log replay feeds back
    # images that were installed once already.  :meth:`load_row` is the
    # one entry that accepts unvalidated input, and validates it.
    # ``watermark`` is :meth:`keep_watermark` where the caller already
    # has it.  With no snapshot reader in flight (``None``) and no
    # chain behind the head there is nothing to retain, prune or
    # count: the head is overwritten here, with no call into it.

    def install_insert(self, pk: tuple, row: dict[str, Any], tid: int,
                       watermark: int | None = _RESOLVE
                       ) -> VersionedRecord:
        """Create a new committed record (or revive a tombstone) for
        ``row`` under its primary key ``pk``, which the caller already
        holds (a write intent and a redo entry carry it).

        All-or-nothing: uniqueness (primary key and unique secondary
        indexes) is checked before any structure is mutated, so a
        refused insert leaves the table exactly as it was.  Each index
        key is computed once, for the check and the insert.  A pristine
        placeholder (TID 0, no chain: see :meth:`ensure_placeholder`)
        is revived in place even while a snapshot is pinned — every
        snapshot already resolves it to "no row", so a tombstone pushed
        onto its chain could never be read.
        """
        record = self.records.get(pk)
        if record is not None and not record.deleted:
            raise DuplicateKeyError(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        indexes = self.indexes
        if indexes:
            keys = []
            for index in indexes.values():
                key = index.key_of(row)
                if index.spec.unique:
                    index.check_insert(key)
                keys.append(key)
        if record is not None:
            if watermark is _RESOLVE:
                watermark = self.keep_watermark()
            if record.prev is None and (
                    watermark is None or record.tid == 0):
                record.value = row
                record.tid = tid
                record.deleted = False
            else:
                created, pruned = record.install(row, tid, watermark)
                if created or pruned:
                    self._note_versions(record, created, pruned)
        else:
            record = VersionedRecord(pk, row, tid)
            self.records[pk] = record
        self.structure_version += 1
        if indexes:
            for index, key in zip(indexes.values(), keys):
                index.insert(key, pk)
        return record

    def install_update(self, record: VersionedRecord,
                       new_value: dict[str, Any], tid: int,
                       watermark: int | None = _RESOLVE) -> None:
        """Install a new committed version of a record, maintaining
        indexes.

        All-or-nothing, like :meth:`install_insert`: unique-index
        violations are detected before any index is touched.
        """
        if self.indexes:
            rekeyed = []
            for index in self.indexes.values():
                old_key = index.key_of(record.value)
                new_key = index.key_of(new_value)
                if old_key != new_key:
                    index.check_insert(new_key)
                    rekeyed.append((index, old_key, new_key))
            for index, old_key, new_key in rekeyed:
                index.remove(old_key, record.key)
                index.insert(new_key, record.key)
        if watermark is _RESOLVE:
            watermark = self.keep_watermark()
        if watermark is None and record.prev is None:
            record.value = new_value
            record.tid = tid
            record.deleted = False
        else:
            created, pruned = record.install(new_value, tid, watermark)
            if created or pruned:
                self._note_versions(record, created, pruned)

    def install_delete(self, record: VersionedRecord, tid: int,
                       watermark: int | None = _RESOLVE) -> None:
        """Tombstone a record and remove it from indexes."""
        for index in self.indexes.values():
            index.remove(index.key_of(record.value), record.key)
        if watermark is _RESOLVE:
            watermark = self.keep_watermark()
        created, pruned = record.mark_deleted(tid, watermark)
        if created or pruned:
            self._note_versions(record, created, pruned)
        self.structure_version += 1

    def ensure_placeholder(self, pk: tuple) -> VersionedRecord:
        """A lockable tombstone for an insert key (2PL).

        A 2PL inserter exclusive-locks the placeholder in its lock
        table when it buffers the insert, so two concurrent inserters
        of the same key conflict there.  The placeholder is invisible
        to readers (``deleted`` is set) and is revived by
        :meth:`install_insert` on commit.
        """
        record = self.records.get(pk)
        if record is None:
            record = VersionedRecord(pk, {}, 0)
            record.deleted = True
            self.records[pk] = record
        return record

    def discard_placeholder(self, record: VersionedRecord) -> None:
        """Drop a never-revived insert placeholder (abort cleanup).

        Only a pristine placeholder (still a tombstone, TID 0 — never
        installed over, never a committed row) is removed; anything
        else is live state or a real tombstone and stays.
        """
        existing = self.records.get(record.key)
        if existing is record and record.deleted and record.tid == 0:
            del self.records[record.key]

    # ------------------------------------------------------------------
    # Non-transactional bulk loading (benchmark setup only).
    # ------------------------------------------------------------------

    def load_row(self, row: Mapping[str, Any], tid: int = 0) -> None:
        """Insert without concurrency control; for initial data loads.

        Validates (and thereby copies) ``row``: bulk loading is the
        one path that hands the table input nobody has checked."""
        schema = self.schema
        row = schema.validate_row(row)
        self.install_insert(schema.primary_key_of(row), row, tid)

    def rows(self) -> list[dict[str, Any]]:
        """Snapshot of all committed rows (testing/inspection)."""
        return [r.snapshot() for r in self.iter_records()]
