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
read it).  A log has no listeners: :meth:`RedoLog.append` returns the
record, and the commit publishes every participant's record once all
have installed.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

class RedoEntry(NamedTuple):
    """One logical write: reactor/table/pk plus the after-image.

    ``row`` *is* the installed image, not a copy of it: an install
    takes ownership of the image it is handed and nothing mutates an
    installed image afterwards (a later write installs a new dict, and
    reads hand out copies), so the live entry and any replica that
    replayed it may share one dict — and neither may ever change it.
    The log keeps a sealed copy (:attr:`RedoRecord.sealed`).
    """

    reactor: str
    table: str
    kind: str  # insert | update | delete
    pk: tuple
    row: dict[str, Any] | None  # None for deletes


@dataclass(frozen=True)
class RedoRecord:
    """All writes of one committed transaction within one container.

    Logs hold a record *sealed*: encoded once, at append, into one
    ``bytes`` object (:attr:`sealed`) that the garbage collector does
    not track.  :func:`unseal` is the way back.
    """

    commit_tid: int
    entries: tuple[RedoEntry, ...]

    @cached_property
    def sealed(self) -> bytes:
        """``(tid, ((reactor, table, kind, pk, row), ...))`` in
        ``marshal`` version 2.  Version 3 and later write
        back-references that depend on object identity; version 2
        writes none, so equal records seal to equal bytes whichever
        objects hold their values."""
        return marshal.dumps(
            (self.commit_tid, tuple(map(tuple, self.entries))), 2)

    @property
    def byte_size(self) -> int:
        """Size of the sealed record: what the group-commit batcher
        accumulates against ``flush_batch_bytes``."""
        return len(self.sealed)


def unseal(sealed: bytes) -> RedoRecord:
    """Decode a sealed record: the one accessor every log reader goes
    through.  The record keeps ``sealed`` as its own
    :attr:`~RedoRecord.sealed`."""
    tid, entries = marshal.loads(sealed)
    record = RedoRecord(tid, tuple(map(RedoEntry._make, entries)))
    # Fill the cache the property would: re-sealing gives equal bytes,
    # and keeping these shares one object between the holders.
    record.__dict__["sealed"] = sealed
    return record


class RedoLog:
    """Per-container append-only redo log.

    ``records`` holds the sealed records in append order and ``tids``
    their commit TIDs at the same positions, so a reader that needs
    only TIDs decodes nothing.  :meth:`append` returns the live record
    and notifies nobody: the commit hands every participant's record
    to one publish step once all of them have installed (the
    durability manager's append sequence, dirty keys and flush
    pipeline, then replication's shipping).  Records a log is built
    from (recovery, promotion seeding) are never published.
    """

    #: Entry from its five fields, in order: what the commit's install
    #: loop logs a write through (it cannot import this package).
    make_entry = RedoEntry._make

    def __init__(self, container_id: int,
                 records: Iterable[bytes] = ()) -> None:
        self.container_id = container_id
        self.records: list[bytes] = list(records)
        self.tids: list[int] = [unseal(sealed).commit_tid
                                for sealed in self.records]
        #: Highest TID a checkpoint truncation dropped records through
        #: (0 when the log is complete from the beginning).  Lets
        #: replay-based audits tell "no records below X" apart from
        #: "records below X were truncated away".
        self.truncated_through = 0

    def append(self, commit_tid: int,
               entries: Iterable[RedoEntry]) -> RedoRecord | None:
        """Seal and append one commit's entries; returns the live
        record (``None``, appending nothing, when there are none)."""
        entries = tuple(entries)
        if not entries:
            return None
        record = RedoRecord(commit_tid, entries)
        self.records.append(record.sealed)
        self.tids.append(commit_tid)
        return record

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
    no-op.  Shared by crash recovery and replica log apply.
    """
    for entry in record.entries:
        apply_entry_to(table_for(entry.reactor, entry.table), entry,
                       record.commit_tid)


def apply_entry_to(table: Any, entry: RedoEntry, commit_tid: int) -> None:
    """Apply one redo entry's after-image to a live table (the unit
    partitioned recovery replays)."""
    existing = table.get_record(entry.pk)
    if entry.kind == DELETE:
        if existing is not None:
            table.install_delete(existing, commit_tid)
    elif entry.kind == INSERT and existing is None:
        assert entry.row is not None
        table.install_insert(entry.row, commit_tid)
    else:
        # UPDATE, or an INSERT whose key already exists: install
        # the after-image over whatever is there.
        assert entry.row is not None
        if existing is None:
            table.install_insert(entry.row, commit_tid)
        else:
            table.install_update(existing, entry.row, commit_tid)
