"""The pluggable concurrency-control (CC) abstraction.

Database architecture is a deployment-time choice (the paper's central
claim) — and so is the concurrency scheme.  This module defines the
protocol every scheme implements and the machinery they share:

* :class:`CCSession` — the transactional record manager for one (root
  transaction, container) pair.  It owns the read-your-writes overlay:
  reads/scans/inserts/updates/deletes of reactor procedures flow
  through it, writes are buffered as :class:`WriteIntent`\\ s until
  commit.  Schemes customize behaviour through three hooks:
  :meth:`CCSession._begin_op` (runs before every data operation),
  :meth:`CCSession._register_read` / :meth:`CCSession._register_node`
  (a committed record / index-or-table structure joined the read
  footprint) and :meth:`CCSession._set_intent` (a write joined the
  write set) — OCC records versions to validate later, 2PL acquires
  locks eagerly, passthrough does neither.

* :class:`ConcurrencyControl` — the per-container manager: owns the
  TID generator, the shared :class:`CCStats` counters and the optional
  redo log, and drives ``validate`` / ``install`` / ``abort``.  The
  write-installation phase is scheme-independent and lives here.

* :class:`PassthroughCC` — the explicit no-concurrency-control
  scheme, ``"none"``.

The table that maps a ``cc_scheme`` deployment string to a
per-container manager is :func:`repro.concurrency.create_cc_scheme`'s.

A scan returns the number of records it *examined* along with its
rows (:class:`ScanResult`), so the execution runtime can charge
simulated CPU proportional to real work done; a point operation
examines one record per key and returns only its result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Iterable, Mapping

from repro.errors import (
    DuplicateKeyError,
    QueryError,
    ReactorError,
    ReadOnlyViolation,
    RecordNotFound,
)
from repro.concurrency.tid import EpochManager, TidGenerator
from repro.relational.index import HashIndex, OrderedIndex
from repro.relational.predicate import ALWAYS, Predicate
from repro.relational.table import Table
from repro.storage.record import VersionedRecord

Row = dict[str, Any]

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

#: The canonical write-set order — the order validation checks intents,
#: installation applies them and the redo log records them: table
#: name, then its reactor (two reactors' same-named tables stay apart),
#: then primary key.  Primary-key columns are typed and non-null, so
#: one table's keys always compare; the key is read in C, with no
#: Python call per intent.
_INTENT_ORDER = attrgetter("table.name", "table.owner", "pk")


def require_hash_equality(index_name: str, low: tuple | None,
                          high: tuple | None) -> None:
    """The shared hash-index scan contract: equality only.

    One definition for every session kind (validated and snapshot), so
    a procedure's scans behave identically whichever session serves
    them.
    """
    if low is None or low != high:
        raise QueryError(
            f"hash index {index_name!r} supports equality only; "
            "pass low == high"
        )


def equality_probe(table: Table, predicate: Predicate
                   ) -> tuple[HashIndex, tuple] | None:
    """The hash index ``predicate``'s equality bindings fully bind,
    with its key, or ``None`` when none does (the scan walks the
    table) — one rule for every session kind."""
    bindings = predicate.equality_bindings()
    for idx in table.indexes.values():
        if isinstance(idx, HashIndex) and all(
                c in bindings for c in idx.spec.columns):
            return idx, tuple(bindings[c] for c in idx.spec.columns)
    return None


class WriteIntent:
    """A buffered write: what to do to one primary key at commit."""

    __slots__ = ("kind", "table", "pk", "record", "new_value")

    def __init__(self, kind: str, table: Table, pk: tuple,
                 record: VersionedRecord | None,
                 new_value: Row | None) -> None:
        self.kind = kind
        self.table = table
        self.pk = pk
        self.record = record
        self.new_value = new_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteIntent({self.kind}, {self.table.name}, {self.pk!r})"


class ScanResult:
    """Rows returned by a scan plus the number of records examined."""

    __slots__ = ("rows", "examined")

    def __init__(self, rows: list[Row], examined: int) -> None:
        self.rows = rows
        self.examined = examined

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


#: Sentinel ``out_order``: the scan's candidate walk already visits
#: records in result order (see :meth:`CCSession._collect_candidates`).
_CANDIDATE_ORDER = object()


#: Abort reasons in ``abort_counts()["by_reason"]`` order, each with
#: the :class:`CCStats` field that counts it.
ABORT_REASONS = {
    "validation_failure": "validation_failures",
    "lock_conflict": "lock_conflicts",
    "deadlock_avoidance": "deadlock_avoidance",
    "wound": "wounds",
    "user": "user_aborts",
    "dangerous_structure": "dangerous_structure_aborts",
}


@dataclass(slots=True)
class CCStats:
    """Shared per-container counters, one set per scheme instance.

    Counters record *events at the container where they occur*: a
    multi-container transaction that fails validation in one container
    counts one validation failure there and nothing in its siblings; a
    user abort spanning three containers counts once per container.
    """

    #: commit-time validations attempted (every scheme counts these).
    validations: int = 0
    #: OCC: taken insert key / stale read / phantom at validation.
    validation_failures: int = 0
    #: 2PL NO_WAIT: lock requests refused because of a conflict.
    lock_conflicts: int = 0
    #: 2PL WAIT_DIE: younger requesters that died instead of waiting.
    deadlock_avoidance: int = 0
    #: 2PL WAIT_DIE: younger holders wounded by an older requester.
    wounds: int = 0
    #: application-initiated aborts observed by this container.
    user_aborts: int = 0
    #: dynamic intra-transaction safety violations (Section 2.2.4).
    dangerous_structure_aborts: int = 0

    def merge(self, other: "CCStats") -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))


class CCSession:
    """Read/write sets of one root transaction within one container.

    The base class is a complete record manager (overlay semantics,
    scan paths, intent merging); concrete schemes subclass it and
    override the footprint hooks.  One session exists per (root
    transaction, container); its manager drives validation,
    installation and abort.
    """

    __slots__ = ("txn_id", "container_id", "owner", "read_only",
                 "_reads", "_writes", "_node_checks", "finished",
                 "_sorted_intents")

    #: Does this session class override :meth:`_begin_op` /
    #: :meth:`_register_read`?  Decided once per class: the point and
    #: scan paths skip the dispatch to hooks that are the base no-op /
    #: the base bookkeeping (OCC, MVCC, passthrough) and keep it for
    #: schemes that hook them (2PL: wound check, lock acquisition).
    _hooks_begin_op = False
    _hooks_register_read = False

    #: A validated session reads the latest committed versions;
    #: :class:`~repro.concurrency.mvcc.SnapshotSession`'s slot shadows
    #: this with the TID it is pinned at.
    snapshot_tid: int | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._hooks_begin_op = cls._begin_op is not CCSession._begin_op
        cls._hooks_register_read = \
            cls._register_read is not CCSession._register_read

    def __init__(self, txn_id: int, container_id: int) -> None:
        self.txn_id = txn_id
        self.container_id = container_id
        #: The owning RootTransaction while the runtime drives this
        #: session (``None`` when driven by hand, and again once the
        #: manager finished it: a completed root is no reference
        #: cycle).  For transaction-wide state shared across a root's
        #: per-container sessions — 2PL wound propagation.
        self.owner: Any = None
        #: Set once, when a read-only root opens the session.  Such a
        #: root may have been routed to a read replica or be running
        #: on a snapshot: its writes abort rather than mutate state
        #: the reader was promised not to touch (on the primary too,
        #: for symmetry) — insert, update and delete all raise the
        #: typed :class:`~repro.errors.ReadOnlyViolation`.
        self.read_only = False
        # record -> tid seen at first read (records hash by identity,
        # so this is the id(record)-keyed map without the id() calls)
        self._reads: dict[VersionedRecord, int] = {}
        # (id(table), pk) -> WriteIntent
        self._writes: dict[tuple[int, tuple], WriteIntent] = {}
        # (object with .structure_version, version seen) — phantom guard
        self._node_checks: dict[int, tuple[Any, int]] = {}
        self.finished = False
        #: Memoized :meth:`sorted_intents` result; validation and
        #: installation both walk the ordered write set, and the sort
        #: only has to happen once per commit.  Invalidated whenever
        #: the write set changes.
        self._sorted_intents: list[WriteIntent] | None = None

    # ------------------------------------------------------------------
    # Scheme hooks
    # ------------------------------------------------------------------

    def _begin_op(self) -> None:
        """Runs before every public data operation (2PL: wound check)."""

    def _read_only_violation(self) -> ReadOnlyViolation:
        return ReadOnlyViolation(
            f"read-only transaction {self.txn_id} attempted a write")

    def _register_read(self, record: VersionedRecord) -> None:
        """A committed record joined the read footprint."""
        if record not in self._reads:
            self._reads[record] = record.tid

    def _register_node(self, node: Any) -> None:
        """A table/index structure joined the read footprint (scan or
        read-miss: guards against phantoms)."""
        key = id(node)
        if key not in self._node_checks:
            self._node_checks[key] = (node, node.structure_version)

    def _set_intent(self, intent: WriteIntent) -> None:
        """A write joined (or replaced an entry of) the write set."""
        self._writes[(id(intent.table), intent.pk)] = intent
        self._sorted_intents = None

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------

    @property
    def read_count(self) -> int:
        return len(self._reads)

    @property
    def validation_read_count(self) -> int:
        """Reads commit-time validation must walk.

        Equals :attr:`read_count` for validated sessions; snapshot
        sessions override it to 0 — their reads pin a version, nothing
        is re-checked at commit, so the commit path charges nothing
        per read.
        """
        return len(self._reads)

    @property
    def write_count(self) -> int:
        return len(self._writes)

    def _intent_for(self, table: Table, pk: tuple) -> WriteIntent | None:
        return self._writes.get((id(table), pk))

    def _drop_intent(self, table: Table, pk: tuple) -> None:
        self._writes.pop((id(table), pk), None)
        self._sorted_intents = None

    # ------------------------------------------------------------------
    # Transactional data operations (the record manager interface)
    # ------------------------------------------------------------------

    def read(self, table: Table, pk: tuple) -> Row | None:
        """Point read by primary key; ``None`` when absent."""
        if self._hooks_begin_op:
            self._begin_op()
        writes = self._writes
        if writes:
            intent = writes.get((id(table), pk))
            if intent is not None:
                if intent.kind == DELETE:
                    return None
                assert intent.new_value is not None
                return dict(intent.new_value)
        record = table.records.get(pk)
        if record is None or record.deleted:
            # A miss is also a predicate read: guard against a phantom
            # insert of this key by validating the table structure.
            self._register_node(table)
            return None
        if self._hooks_register_read:
            self._register_read(record)
        elif record not in self._reads:
            self._reads[record] = record.tid
        return dict(record.value)

    def multi_read(self, table: Table,
                   pks: Iterable[tuple]) -> list[Row | None]:
        """Vectorized point reads: one overlay/version walk per batch.

        Semantically identical to ``[read(table, pk) for pk in pks]``
        — same footprint registration (scheme hooks included), same
        overlay visibility — but with method lookups hoisted out of
        the loop and results preallocated.  Returns rows aligned with
        ``pks``; missing keys yield ``None`` in place.
        """
        if self._hooks_begin_op:
            self._begin_op()
        pks = list(pks)
        out: list[Row | None] = [None] * len(pks)
        writes = self._writes
        table_id = id(table)
        get_record = table.records.get
        register_read = self._register_read
        # Footprint registration inlined when the scheme uses the base
        # implementation (OCC, none); locking schemes hook per-read lock
        # acquisition into _register_read and keep the dispatch.
        reads = None if self._hooks_register_read else self._reads
        if writes:
            for i, pk in enumerate(pks):
                intent = writes.get((table_id, pk))
                if intent is not None:
                    if intent.kind != DELETE:
                        out[i] = dict(intent.new_value or {})
                    continue
                record = get_record(pk)
                if record is None or record.deleted:
                    self._register_node(table)
                elif reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                    out[i] = dict(record.value)
                else:
                    register_read(record)
                    out[i] = dict(record.value)
        else:
            for i, pk in enumerate(pks):
                record = get_record(pk)
                if record is None or record.deleted:
                    self._register_node(table)
                elif reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                    out[i] = dict(record.value)
                else:
                    register_read(record)
                    out[i] = dict(record.value)
        return out

    def insert(self, table: Table, row: Mapping[str, Any]) -> None:
        """Buffer an insert; duplicate keys visible to this transaction
        raise immediately (concurrent duplicates surface at commit)."""
        if self._hooks_begin_op:
            self._begin_op()
        if self.read_only:
            raise self._read_only_violation()
        validated = table.schema.validate_row(row)
        pk = table.schema.primary_key_of(validated)
        intent = self._intent_for(table, pk)
        if intent is not None:
            if intent.kind == DELETE:
                # delete + insert collapses to an update of the record.
                self._set_intent(WriteIntent(
                    UPDATE, table, pk, intent.record, validated))
                return
            raise DuplicateKeyError(
                f"duplicate key {pk!r} in {table.name!r} (own write)"
            )
        if table.get_record(pk) is not None:
            raise self._committed_duplicate(table, pk)
        self._set_intent(WriteIntent(INSERT, table, pk, None, validated))

    def _committed_duplicate(self, table: Table,
                             pk: tuple) -> ReactorError:
        """What an insert raises when a committed row holds its key."""
        return DuplicateKeyError(f"duplicate key {pk!r} in {table.name!r}")

    def update(self, table: Table, pk: tuple,
               assignments: Mapping[str, Any]) -> Row:
        """Read-modify-write one row; returns the new image.

        The read is inlined: the overlay or committed image is copied
        once into the new intent (which owns that dict until it is
        installed as the committed image) and once more for the
        caller.  The footprint registered is identical to
        read-then-write.
        """
        if self._hooks_begin_op:
            self._begin_op()
        if self.read_only:
            raise self._read_only_violation()
        table.schema.validate_assignments(assignments)
        writes = self._writes
        if writes:
            intent = writes.get((id(table), pk))
            if intent is not None:
                if intent.kind == DELETE:
                    raise RecordNotFound(
                        f"update of missing key {pk!r} in "
                        f"{table.name!r}"
                    )
                # Merge into the existing insert/update intent.
                assert intent.new_value is not None
                new_value = dict(intent.new_value)
                new_value.update(assignments)
                self._set_intent(WriteIntent(
                    intent.kind, table, pk, intent.record, new_value))
                return dict(new_value)
        record = table.records.get(pk)
        if record is None or record.deleted:
            # Same phantom guard a read miss registers.
            self._register_node(table)
            raise RecordNotFound(
                f"update of missing key {pk!r} in {table.name!r}"
            )
        if self._hooks_register_read:
            self._register_read(record)
        elif record not in self._reads:
            self._reads[record] = record.tid
        new_value = dict(record.value)
        new_value.update(assignments)
        self._set_intent(WriteIntent(
            UPDATE, table, pk, record, new_value))
        # The intent owns ``new_value`` from here to installation (it
        # becomes the committed image as is); the caller gets a copy.
        return dict(new_value)

    def delete(self, table: Table, pk: tuple) -> None:
        """Buffer a delete."""
        if self._hooks_begin_op:
            self._begin_op()
        if self.read_only:
            raise self._read_only_violation()
        intent = self._intent_for(table, pk)
        if intent is not None:
            if intent.kind == INSERT:
                self._drop_intent(table, pk)
                return
            if intent.kind == DELETE:
                raise RecordNotFound(
                    f"delete of missing key {pk!r} in {table.name!r}"
                )
            self._set_intent(WriteIntent(
                DELETE, table, pk, intent.record, None))
            return
        record = table.get_record(pk)
        if record is None:
            self._register_node(table)
            raise RecordNotFound(
                f"delete of missing key {pk!r} in {table.name!r}"
            )
        self._register_read(record)
        self._set_intent(WriteIntent(DELETE, table, pk, record, None))

    def scan(self, table: Table, predicate: Predicate = ALWAYS,
             index: str | None = None, low: tuple | None = None,
             high: tuple | None = None, reverse: bool = False,
             limit: int | None = None) -> ScanResult:
        """Predicate/range scan with write-set overlay.

        Every candidate examined joins the read footprint, in
        primary-key order (conservative predicate-read protection);
        the index or table structure is guarded against phantom
        inserts/deletes (version check for OCC, structure lock for
        2PL).

        The result order is known up front (see
        :meth:`_collect_candidates`).  Own writes are qualified on
        their new image before one is copied, and only a scan that
        keeps one sorts.
        """
        if self._hooks_begin_op:
            self._begin_op()
        candidates, idx, out_order = \
            self._collect_candidates(table, predicate, index, low, high)
        examined = len(candidates)
        writes = self._writes
        register_read = self._register_read
        # A scan with no predicate keeps every row: no call per row.
        matches = None if predicate is ALWAYS else predicate.matches
        # Footprint registration inlined when the scheme uses the base
        # implementation (OCC, none); locking schemes hook per-read lock
        # acquisition into _register_read and keep the dispatch.
        reads = None if self._hooks_register_read else self._reads
        if not writes and out_order is _CANDIDATE_ORDER:
            # Committed images agree with their index entries, so the
            # pk-ordered candidate walk is the result order: no row is
            # keyed, nothing is sorted.
            out = []
            append = out.append
            for record in candidates:
                if reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                else:
                    register_read(record)
                image = dict(record.value)
                if matches is None or matches(image):
                    append(image)
        else:
            table_id = id(table)
            hits: dict[tuple, Row] = {}
            # Candidates this transaction wrote are replaced by its own
            # image (or absence) below.
            overlaid = set()
            for record in candidates:
                pk = record.key
                if writes and (table_id, pk) in writes:
                    overlaid.add(pk)
                    continue
                if reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                else:
                    register_read(record)
                image = dict(record.value)
                if matches is None or matches(image):
                    hits[pk] = image
            # Every own insert or update of this table is matched on
            # its new image, against the probed key or range and then
            # the predicate, and copied only if it is kept: the index
            # holds committed keys only, so an indexed column may have
            # moved into or out of them.
            key_of = None if idx is None else idx.key_of
            ordered = isinstance(idx, OrderedIndex)
            kept = False
            for intent in writes.values():
                if intent.table is not table or intent.kind == DELETE:
                    continue
                value = intent.new_value
                if key_of is not None:
                    key = key_of(value)
                    if not ordered:
                        # Exact-key match, like the bucket lookup.
                        if key != low:
                            continue
                    elif low is not None and key[:len(low)] < low or \
                            high is not None and key[:len(high)] > high:
                        continue
                if matches is None or matches(value):
                    pk = intent.pk
                    hits[pk] = dict(value)
                    kept = True
                    if pk not in overlaid:
                        examined += 1
            if not kept:
                out = list(hits.values()) \
                    if out_order is _CANDIDATE_ORDER \
                    else [hits[pk] for pk in out_order if pk in hits]
            elif out_order is _CANDIDATE_ORDER:
                out = [hits[pk] for pk in sorted(hits)]
            else:
                out = [hits[pk] for __, pk in
                       sorted([(key_of(image), pk)
                               for pk, image in hits.items()])]
        if reverse:
            out.reverse()
        if limit is not None:
            out = out[:limit]
        return ScanResult(out, examined)

    def _collect_candidates(self, table: Table, predicate: Predicate,
                            index: str | None, low: tuple | None,
                            high: tuple | None):
        """Pick an access path; returns ``(records, idx, out_order)``.

        ``records`` are the live candidates in primary-key order.
        ``idx`` is the named index, or ``None`` for a predicate scan
        (its own writes need no key check).  ``out_order`` is the
        result order: :data:`_CANDIDATE_ORDER` when it is primary-key
        order (full scans, hash buckets — one shared key — and ordered
        ranges over a primary-key prefix), else the range's pk list in
        ``(key, pk)`` order."""
        if index is not None:
            idx = table.index(index)
            self._register_node(idx)
            if isinstance(idx, OrderedIndex):
                pks = idx.range(low, high)
                if idx.pk_ordered:
                    # A range over a primary-key prefix is already in
                    # primary-key order.
                    return table.records_for_pks(pks), idx, \
                        _CANDIDATE_ORDER
                out_order = pks
            else:
                require_hash_equality(index, low, high)
                pks = idx.lookup(low)
                out_order = _CANDIDATE_ORDER
            return table.records_for_pks(sorted(pks)), idx, out_order

        probe = equality_probe(table, predicate)
        if probe is not None:
            idx, key = probe
            self._register_node(idx)
            return table.records_for_pks(sorted(idx.lookup(key))), None, \
                _CANDIDATE_ORDER

        self._register_node(table)
        return list(table.iter_records()), None, _CANDIDATE_ORDER

    # ------------------------------------------------------------------
    # Validation / installation hooks (driven by the manager)
    # ------------------------------------------------------------------

    def sorted_intents(self) -> list[WriteIntent]:
        """Write intents in the canonical order (:data:`_INTENT_ORDER`),
        whatever order they were buffered in.

        Memoized: validation and installation both walk this list,
        and commit runs them back-to-back on an unchanged write set.
        Any write-set mutation invalidates the cache.
        """
        cached = self._sorted_intents
        if cached is None:
            cached = list(self._writes.values())
            if len(cached) > 1:
                cached.sort(key=_INTENT_ORDER)
            self._sorted_intents = cached
        return cached

    def release_locks(self) -> None:
        """Free whatever the scheme holds for this session (2PL: its
        lock-table entries and insert placeholders).  OCC and
        passthrough hold nothing: validate + install run inside the
        commit's one ``guarded`` call."""


class ConcurrencyControl:
    """Per-container CC engine: validation, installation, TIDs.

    Subclasses implement :meth:`begin_session` and :meth:`validate`;
    installation and abort are scheme-independent (buffered intents are
    applied with the commit TID, redo-logged when durability is on, and
    the session's locks — whatever the scheme means by locks — are
    released through :meth:`CCSession.release_locks`).  The runtime
    calls ``validate`` and ``install`` inside one call to the backend's
    ``guarded`` over the participants, one atomic section per commit.
    """

    #: Skip (instead of propagating) a write whose install is refused.
    #: Only a scheme that neither validates nor locks can see one.
    best_effort_install = False

    __slots__ = ("container_id", "tids", "stats", "redo_log", "failed")

    def __init__(self, container_id: int, epochs: EpochManager) -> None:
        self.container_id = container_id
        self.tids = TidGenerator(epochs)
        self.stats = CCStats()
        #: Optional redo log (see repro.durability): when set, every
        #: installed write is logged with its commit TID, through the
        #: log's ``append_runs``.
        self.redo_log: Any = None
        #: Set when this manager's container failed (replication
        #: failover): sessions created here must abort at commit —
        #: their writes would land in dead storage.
        self.failed = False

    # -- protocol -------------------------------------------------------

    @staticmethod
    def is_snapshot_session(session: CCSession) -> bool:
        """Snapshot sessions validate nothing: every scheme's
        ``validate`` short-circuits them *before* counting a
        validation, so CC stats reflect only validated sessions."""
        return session.snapshot_tid is not None

    def begin_session(self, txn_id: int) -> CCSession:
        raise NotImplementedError

    def begin_snapshot_session(self, txn_id: int,
                               snapshot_tid: int) -> CCSession:
        """A snapshot-isolated read-only session pinned at
        ``snapshot_tid``.

        Available under every scheme — whether snapshot reads are
        *used* is the deployment's ``snapshot_reads`` switch; the
        session takes no locks, validates nothing, and can never
        abort, so it composes with any writer protocol this manager
        runs.
        """
        from repro.concurrency.mvcc import SnapshotSession

        return SnapshotSession(txn_id, self.container_id, snapshot_tid)

    def validate(self, session: CCSession) -> int:
        """Phase-1 validation; returns the TID floor for the commit TID.

        Raises a :class:`~repro.errors.CCAbort` subclass on conflict.
        """
        raise NotImplementedError

    def install(self, session: CCSession,
                commit_tid: int) -> tuple[int, Any]:
        """Phase-2 write installation; returns the number of writes
        and the redo record appended (``None`` without a redo log or
        without writes), which the coordinator hands on for publishing.

        One pass over the ordered write set, one call per write: each
        intent goes straight to its table's install (the GC watermark
        resolved per table, not per write) and, when a redo log is
        attached, joins the commit's *value runs* — one per stretch of
        writes to one table of one kind, the image's values read in
        schema column order (``TableSchema.values_of``) — which the
        log's ``append_runs`` seals once, keeping the installed images
        for the live record's entries
        (:class:`repro.durability.wal.RedoRecord`).  Under a real
        scheme an install can only succeed — validation (inside the
        commit's ``guarded`` call) or locking guarantees exclusivity —
        so failures propagate as bugs.
        """
        count = 0
        redo_log = self.redo_log
        if redo_log is None:
            runs = images = None
        else:
            runs, images = [], []
        table = None
        for intent in session.sorted_intents():
            kind = intent.kind
            if intent.table is not table:
                table = intent.table
                watermark = table.keep_watermark()
                run_kind = None
            try:
                if kind == UPDATE:
                    table.install_update(intent.record, intent.new_value,
                                         commit_tid, watermark)
                elif kind == INSERT:
                    table.install_insert(intent.pk, intent.new_value,
                                         commit_tid, watermark)
                else:
                    table.install_delete(intent.record, commit_tid,
                                         watermark)
            except ReactorError:
                if not self.best_effort_install:
                    raise
                # Not installed, so no longer part of what committed.
                session._drop_intent(table, intent.pk)
                continue
            count += 1
            if runs is not None:
                if kind is not run_kind:
                    run_kind = kind
                    schema = table.schema
                    run = [table.owner or "", table.name, kind,
                           () if kind == DELETE else schema.column_names]
                    runs.append(run)
                    values_of = schema.values_of
                image = intent.new_value
                run += (intent.pk,
                        None if image is None else values_of(image))
                images.append(image)
        record = redo_log.append_runs(commit_tid, runs, images) \
            if runs else None
        session.release_locks()
        session.finished = True
        # The root keeps its sessions (stats are read after it
        # completes); without the way back the pair dies by refcount.
        session.owner = None
        self.tids.advance_to(commit_tid)
        return count, record

    def abort(self, session: CCSession,
              reason: str | None = "user") -> None:
        """Drop all buffered writes and release any held locks.

        ``reason`` attributes the abort in the stats: ``"user"`` and
        ``"dangerous_structure"`` are counted here; CC-initiated aborts
        (validation failures, lock conflicts, wounds) were already
        counted at their raise site and pass ``None``.
        """
        if reason == "user":
            self.stats.user_aborts += 1
        elif reason == "dangerous_structure":
            self.stats.dangerous_structure_aborts += 1
        session.release_locks()
        session.finished = True
        session.owner = None  # as in install(): no root <-> session cycle


class PassthroughCC(ConcurrencyControl):
    """The explicit no-concurrency-control scheme (``"none"``).

    Sessions still buffer writes (read-your-writes semantics and the
    abort path need the overlay) but nothing is validated and no locks
    are taken: concurrent conflicting transactions can produce
    non-serializable results (lost updates, broken invariants).
    Useful as the ablation baseline — contended runs violate
    application invariants, and overlapped interleavings fail the
    :mod:`repro.formal` audit.
    """

    #: Nothing validates or locks, so two transactions can race to
    #: install conflicting writes (the same insert key); the loser's
    #: is dropped rather than crashing the run — exactly the kind of
    #: anomaly the ablation exists to expose.
    best_effort_install = True

    __slots__ = ()

    def begin_session(self, txn_id: int) -> CCSession:
        return CCSession(txn_id, self.container_id)

    def validate(self, session: CCSession) -> int:
        if self.is_snapshot_session(session):
            return 0
        self.stats.validations += 1
        return 0
