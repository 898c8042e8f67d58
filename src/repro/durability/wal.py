"""Redo logging of committed writes.

The paper leaves durability to future work, pointing at "fast
log-based recovery" (SiloR) and "distributed checkpoints".  This
package implements that design over the simulated ReactDB: each
container keeps a :class:`RedoLog` of *logical redo records* — the
full after-images installed by committed transactions, tagged with
their commit TID.  Because Silo TIDs order transactions consistently
with their serial order, replaying redo records in TID order from a
checkpoint reconstructs exactly the committed state.

Logs are in-memory lists with optional JSON-lines serialization so
recovery can also be exercised across files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

#: The C encoder ``json.dumps`` builds on every call, built once per
#: process with ``json.dumps``'s own settings: ``", "`` / ``": "``
#: separators, ASCII escapes, NaN and the infinities allowed.  No
#: ``markers`` dict (the circular-reference check): an installed image
#: holds no cycle, and one would still end in the encoder's
#: ``RecursionError``.  The positional signature is CPython's, as the
#: wire codec's in :mod:`repro.serving.protocol` is.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii, None, ": ", ", ",
    False, False, True)

#: What a record's line adds to its values: ``{"reactor": R, "table":
#: T, "kind": K, "pk": P, "row": W}`` is 41 characters longer than
#: ``[R, T, K, P, W]``, and ``{"tid": N, "entries": [...]}`` is 22
#: longer than ``N`` plus ``[...]``.
_ENTRY_KEYS = 41
_RECORD_KEYS = 22

#: A row's column tuple -> sum of (JSON key + ``": "``) over its
#: columns: what a row's keys add to the array of its values.  One entry
#: per schema; two threads filling the same entry write the same value.
_COLUMN_SIZES: dict[tuple, int] = {}


def _columns_size(columns: tuple) -> int:
    size = 0
    for column in columns:
        # ``{K: 0}`` is K's JSON key text plus ``{``, ``: 0`` and ``}``;
        # the encoder turns a non-string key into text as json.dumps
        # does.
        size += sum(map(len, _ENCODE({column: 0}, 0))) - 3
    return size


class RedoEntry(NamedTuple):
    """One logical write: reactor/table/pk plus the after-image.

    ``row`` *is* the installed image, not a copy of it: an install
    takes ownership of the image it is handed and nothing mutates an
    installed image afterwards (a later write installs a new dict, and
    reads hand out copies), so the entry, the committed record and any
    replica that replayed the entry may all share one dict — and none
    of them may ever change it.
    """

    reactor: str
    table: str
    kind: str  # insert | update | delete
    pk: tuple
    row: dict[str, Any] | None  # None for deletes

    def to_json(self) -> dict[str, Any]:
        reactor, table, kind, pk, row = self
        return {"reactor": reactor, "table": table, "kind": kind,
                "pk": list(pk), "row": row}

    @staticmethod
    def from_json(data: dict[str, Any]) -> "RedoEntry":
        return RedoEntry(data["reactor"], data["table"], data["kind"],
                         tuple(data["pk"]), data["row"])


@dataclass(frozen=True)
class RedoRecord:
    """All writes of one committed transaction within one container."""

    commit_tid: int
    entries: tuple[RedoEntry, ...]

    def to_json_line(self) -> str:
        return "".join(_ENCODE({
            "tid": self.commit_tid,
            "entries": [e.to_json() for e in self.entries],
        }, 0))

    @staticmethod
    def from_json_line(line: str) -> "RedoRecord":
        data = json.loads(line)
        return RedoRecord(
            commit_tid=data["tid"],
            entries=tuple(RedoEntry.from_json(e)
                          for e in data["entries"]),
        )

    @property
    def byte_size(self) -> int:
        """Serialized size of this record, ``len(self.to_json_line())``
        without building the line — what the group-commit batcher
        accumulates against ``flush_batch_bytes``, once per append.

        One encoder pass over the entries as arrays ``[reactor, table,
        kind, pk, row values | null]`` gives every value's JSON text;
        the key names add constant lengths.  The line is ASCII, so
        characters are bytes.
        """
        size = (_RECORD_KEYS + _ENTRY_KEYS * len(self.entries)
                + len(str(self.commit_tid)))
        arrays = []
        for reactor, table, kind, pk, row in self.entries:
            if row is not None:
                columns = tuple(row)
                try:
                    size += _COLUMN_SIZES[columns]
                except KeyError:
                    size += _COLUMN_SIZES.setdefault(
                        columns, _columns_size(columns))
                row = list(row.values())
            arrays.append((reactor, table, kind, pk, row))
        return size + sum(map(len, _ENCODE(arrays, 0)))


class RedoLog:
    """Per-container append-only redo log.

    ``listeners`` (filled through :meth:`add_listener`) observe every
    appended record, in the order they were added: the durability
    manager's (the full append sequence, the dirty-key tracker and the
    group-commit flush pipeline) and, under replication, the
    log-shipping hook of :mod:`repro.replication`.  They fire at append
    time only; bulk-restored records (recovery, promotion seeding) are
    assigned to ``records`` directly and are not re-shipped or
    re-flushed.
    """

    #: Entry from its five fields, in order: what the commit's install
    #: loop logs a write through (it cannot import this package).
    make_entry = RedoEntry._make

    def __init__(self, container_id: int) -> None:
        self.container_id = container_id
        self.records: list[RedoRecord] = []
        self.listeners: list[Callable[[RedoRecord], None]] = []
        #: Highest TID a checkpoint truncation dropped records through
        #: (0 when the log is complete from the beginning).  Lets
        #: replay-based audits tell "no records below X" apart from
        #: "records below X were truncated away".
        self.truncated_through = 0
        #: Set by :meth:`load_json_lines` when the serialized log ended
        #: in a torn (half-written) line: replay stopped at the last
        #: complete record instead of failing recovery.
        self.torn_tail = False

    def add_listener(self, fn: Callable[[RedoRecord], None]) -> None:
        self.listeners.append(fn)

    def append(self, commit_tid: int,
               entries: Iterable[RedoEntry]) -> None:
        entries = tuple(entries)
        if entries:
            record = RedoRecord(commit_tid, entries)
            self.records.append(record)
            for fn in self.listeners:
                fn(record)

    def truncate_through(self, tid: int) -> int:
        """Drop records with commit TID <= ``tid`` (post-checkpoint
        log truncation).  Returns the number dropped."""
        kept = [r for r in self.records if r.commit_tid > tid]
        dropped = len(self.records) - len(kept)
        self.records = kept
        if dropped and tid > self.truncated_through:
            self.truncated_through = tid
        return dropped

    def dump_json_lines(self) -> str:
        return "\n".join(r.to_json_line() for r in self.records)

    @staticmethod
    def load_json_lines(container_id: int, text: str) -> "RedoLog":
        """Deserialize a log, tolerating a torn tail.

        A crash can truncate the last record mid-write; recovery must
        stop at the last *complete* record rather than refuse the whole
        log.  Only the final non-empty line may be torn — an
        unparseable line in the middle of the file is real corruption
        and raises :class:`ValueError`.
        """
        log = RedoLog(container_id)
        lines = [line for line in text.splitlines() if line.strip()]
        for index, line in enumerate(lines):
            try:
                record = RedoRecord.from_json_line(line)
            except (ValueError, KeyError, TypeError) as exc:
                if index == len(lines) - 1:
                    log.torn_tail = True
                    break
                raise ValueError(
                    f"corrupt redo record at line {index} of "
                    f"container {container_id}'s log (not the tail): "
                    f"{exc}"
                ) from exc
            log.records.append(record)
        return log

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
