"""Redo logging of committed writes.

The paper leaves durability to future work, pointing at "fast
log-based recovery" (SiloR) and "distributed checkpoints".  This
package implements that design over the simulated ReactDB: each
container keeps a :class:`RedoLog` of *logical redo records* — the
full after-images installed by committed transactions, tagged with
their commit TID.  Because Silo TIDs order transactions consistently
with their serial order, replaying redo records in TID order from a
checkpoint reconstructs exactly the committed state.

Logs are in-memory lists of sealed records (``marshal`` bytes, the
one log format: crash images, replicas, recovery and checkpoints all
read it).  The commit's install loop seals each container's share of
a commit once, as *value runs* (SiloR's value logging): per stretch of
writes to one table of one kind, the column names once and then each
row's values in schema column order (:class:`RedoRecord`), so no
per-write object is built and no column name is encoded per row.  A
log has no listeners: :meth:`RedoLog.append_runs` returns the record,
and the commit publishes every participant's record once all have
installed.
"""

from __future__ import annotations

import marshal
from typing import Any, Callable, Iterable, Iterator, NamedTuple

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

class RedoEntry(NamedTuple):
    """One logical write: reactor/table/pk plus the after-image.

    A live record's entries alias the installed images: ``row`` *is*
    the dict the install took ownership of, not a copy.  Nothing
    mutates an installed image afterwards (a later write installs a
    new dict, and reads hand out copies), so the live entry and any
    replica that replayed it may share one dict — and neither may ever
    change it.  The log keeps a sealed copy (:attr:`RedoRecord.sealed`).
    """

    reactor: str
    table: str
    kind: str  # insert | update | delete
    pk: tuple
    row: dict[str, Any] | None  # None for deletes


class RedoRecord:
    """All writes of one committed transaction within one container.

    A record is its commit TID and its :attr:`sealed` bytes, which the
    garbage collector does not track: ``marshal`` version 2 of
    ``(tid, runs)``, one *value run* per stretch of writes to one table
    of one kind, ``[reactor, table, kind, columns, pk, values, pk,
    values, ...]``.  ``values`` is an image's values in ``columns``
    order (``None`` for a delete, whose run has no columns), so a
    column name is written once per run, not once per row.  Version 3
    and later write back-references that depend on object identity;
    version 2 writes none, so equal records seal to equal bytes
    whichever objects hold their values.

    :attr:`entries` are built on first use: a live record (the one
    :meth:`RedoLog.append_runs` returns) builds them from its runs and
    the installed images, so ``entry.row`` is the committed image; an
    unsealed one (:func:`unseal`) decodes them.
    """

    __slots__ = ("commit_tid", "sealed", "_entries", "_runs", "_images")

    def __init__(self, commit_tid: int,
                 entries: Iterable[RedoEntry]) -> None:
        entries = tuple(entries)
        self.commit_tid = commit_tid
        self.sealed = marshal.dumps((commit_tid, _runs_of(entries)), 2)
        self._entries = entries
        self._runs = self._images = None

    @property
    def entries(self) -> tuple[RedoEntry, ...]:
        entries = self._entries
        if entries is None:
            # Runs and images stay: two threads that race here build
            # equal tuples, and neither finds the other's inputs gone.
            entries = self._entries = _entries_of(self._runs,
                                                  self._images)
        return entries

    @property
    def byte_size(self) -> int:
        """Size of the sealed record: what the group-commit batcher
        accumulates against ``flush_batch_bytes``."""
        return len(self.sealed)

    def __eq__(self, other: object) -> bool:
        if type(other) is not RedoRecord:
            return NotImplemented
        return self.commit_tid == other.commit_tid and \
            self.entries == other.entries

    def __repr__(self) -> str:
        return (f"RedoRecord(commit_tid={self.commit_tid!r}, "
                f"entries={self.entries!r})")


def _record(commit_tid: int, sealed: bytes, runs: list,
            images: list | None) -> RedoRecord:
    """A record whose entries are built from ``runs`` (and ``images``,
    the installed rows, when live) on first use."""
    record = object.__new__(RedoRecord)
    record.commit_tid = commit_tid
    record.sealed = sealed
    record._entries = None
    record._runs = runs
    record._images = images
    return record


def _runs_of(entries: tuple[RedoEntry, ...]) -> list[list]:
    """The value runs of ``entries``: a run ends where the reactor,
    table, kind or an image's column order changes, which is where the
    install loop ends one when images keep their schema's order."""
    runs: list[list] = []
    run = None
    for reactor, table, kind, pk, row in entries:
        if row is None:
            columns, values = (), None
        else:
            columns, values = tuple(row), tuple(row.values())
        if run is None or kind != run[2] or table != run[1] \
                or reactor != run[0] or columns != run[3]:
            run = [reactor, table, kind, columns]
            runs.append(run)
        run += (pk, values)
    return runs


def _entries_of(runs: list, images: list | None
                ) -> tuple[RedoEntry, ...]:
    """Entries from value runs: rows are ``images`` in write order
    when given, otherwise dicts rebuilt from each run's columns."""
    entries = []
    position = 0
    for run in runs:
        reactor, table, kind, columns = run[:4]
        for at in range(4, len(run), 2):
            if images is not None:
                row = images[position]
                position += 1
            else:
                values = run[at + 1]
                row = None if values is None else \
                    dict(zip(columns, values))
            entries.append(RedoEntry(reactor, table, kind, run[at], row))
    return tuple(entries)


def unseal(sealed: bytes) -> RedoRecord:
    """Decode a sealed record: the one accessor every log reader goes
    through.  The record keeps ``sealed`` as its own
    :attr:`~RedoRecord.sealed`, so re-sealing shares one object between
    the holders."""
    commit_tid, runs = marshal.loads(sealed)
    return _record(commit_tid, sealed, runs, None)


def written_keys(sealed: bytes) -> Iterator[tuple[str, str, tuple]]:
    """``(reactor, table, pk)`` of every write of a sealed record, in
    order, decoding no row into a dict."""
    for run in marshal.loads(sealed)[1]:
        reactor, table = run[0], run[1]
        for pk in run[4::2]:
            yield reactor, table, pk


class RedoLog:
    """Per-container append-only redo log.

    ``records`` holds the sealed records in append order and ``tids``
    their commit TIDs at the same positions, so a reader that needs
    only TIDs decodes nothing.  An append returns the live record and
    notifies nobody: the commit hands every participant's record to
    one publish step once all of them have installed (the durability
    manager's append sequence and flush pipeline, then replication's
    shipping).  Records a log is built from (recovery, promotion
    seeding) are never published.
    """

    def __init__(self, container_id: int,
                 records: Iterable[bytes] = ()) -> None:
        self.container_id = container_id
        self.records: list[bytes] = list(records)
        self.tids: list[int] = [marshal.loads(sealed)[0]
                                for sealed in self.records]
        #: Highest TID a checkpoint truncation dropped records through
        #: (0 when the log is complete from the beginning).  Lets
        #: replay-based audits tell "no records below X" apart from
        #: "records below X were truncated away".
        self.truncated_through = 0

    def append_runs(self, commit_tid: int, runs: list,
                    images: list) -> RedoRecord:
        """Seal and append one commit's value runs, as the install loop
        builds them (see :class:`RedoRecord`); ``images`` are the
        installed rows in write order (``None`` for a delete).  Returns
        the live record."""
        sealed = marshal.dumps((commit_tid, runs), 2)
        self.records.append(sealed)
        self.tids.append(commit_tid)
        return _record(commit_tid, sealed, runs, images)

    def append(self, commit_tid: int,
               entries: Iterable[RedoEntry]) -> RedoRecord | None:
        """:meth:`append_runs` for writes given as entries (how a log
        is built by hand); ``None``, appending nothing, when there are
        none."""
        entries = tuple(entries)
        if not entries:
            return None
        return self.append_runs(commit_tid, _runs_of(entries),
                                [entry.row for entry in entries])

    def truncate_through(self, tid: int) -> int:
        """Drop records with commit TID <= ``tid`` (post-checkpoint
        log truncation).  Returns the number dropped."""
        kept = [pos for pos, commit_tid in enumerate(self.tids)
                if commit_tid > tid]
        dropped = len(self.tids) - len(kept)
        self.records = [self.records[pos] for pos in kept]
        self.tids = [self.tids[pos] for pos in kept]
        if dropped and tid > self.truncated_through:
            self.truncated_through = tid
        return dropped

    def __len__(self) -> int:
        return len(self.records)


def apply_record_to(table_for: Callable[[str, str], Any],
                    record: RedoRecord) -> None:
    """Apply one redo record's after-images to live tables.

    ``table_for(reactor_name, table_name)`` resolves the target table.
    Application is idempotent on after-images: an INSERT whose key
    already exists installs the image as an update (replay over a newer
    checkpoint / replica re-ship), a DELETE of a missing key is a
    no-op.  Migration replay applies whole records; crash recovery and
    replica apply go entry by entry (:func:`apply_entry_to`).
    """
    for entry in record.entries:
        apply_entry_to(table_for(entry.reactor, entry.table), entry,
                       record.commit_tid)


def apply_entry_to(table: Any, entry: RedoEntry, commit_tid: int) -> None:
    """Apply one redo entry's after-image to a live table (the unit
    partitioned recovery and a replica's fenced apply replay)."""
    existing = table.get_record(entry.pk)
    if entry.kind == DELETE:
        if existing is not None:
            table.install_delete(existing, commit_tid)
    elif entry.kind == INSERT and existing is None:
        assert entry.row is not None
        table.install_insert(entry.pk, entry.row, commit_tid)
    else:
        # UPDATE, or an INSERT whose key already exists: install
        # the after-image over whatever is there.
        assert entry.row is not None
        if existing is None:
            table.install_insert(entry.pk, entry.row, commit_tid)
        else:
            table.install_update(existing, entry.row, commit_tid)
