"""Checkpoints of reactor-database state: one chained manifest.

A checkpoint is a consistent snapshot of every reactor's tables plus
the per-container TID high-water marks.  Checkpoints are taken at
quiescence (no in-flight transactions — the discrete-event scheduler
must be idle), which corresponds to the distributed-checkpoint
boundary the paper references; combining a checkpoint with redo-log
replay of later TIDs reconstructs any committed state.

There is one checkpoint format, the :class:`CheckpointManifest`: a
full base :class:`CheckpointSegment` chained with delta segments that
carry only the keys dirtied since the previous segment (tracked per
reactor from the redo records each commit publishes to the durability
manager), plus the WAL-truncation watermark each segment authorized.
:func:`take_checkpoint` returns a one-segment manifest; the durability
manager's chain starts with one.  :meth:`CheckpointManifest.materialize`
replays the chain newest-last into the ``reactor -> table -> rows``
image recovery loads before tail replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError

FULL = "full"
INCREMENTAL = "incremental"


def take_checkpoint(database: Any) -> CheckpointManifest:
    """Snapshot a quiescent database as a one-segment manifest.

    Raises :class:`SimulationError` when transactions are still in
    flight — checkpoints here model the coordinated quiescent
    checkpoints of the recovery literature, not fuzzy ones.
    """
    require_quiescence(database)
    segment = CheckpointSegment(seq=1, kind=FULL, parent_seq=None,
                                taken_at_us=database.scheduler.now,
                                tid_watermarks=last_tids(database))
    for name in database.reactor_names():
        segment.rows[name] = {
            table.name: [
                {**row, "__pk": list(table.schema.primary_key_of(row))}
                for row in table.rows()
            ]
            for table in database.reactor(name).catalog
        }
    return CheckpointManifest(segments=[segment])


def last_tids(database: Any) -> dict[int, int]:
    """Container id -> last issued commit TID, now."""
    return {container.container_id: container.concurrency.tids.last
            for container in database.containers}


def require_quiescence(database: Any) -> None:
    if database.scheduler.pending() > 0:
        raise SimulationError(
            "checkpoint requires quiescence: drain the scheduler "
            "(scheduler.run()) before snapshotting"
        )


@dataclass
class CheckpointSegment:
    """One link of an incremental-checkpoint chain.

    A ``full`` segment carries every committed row; an ``incremental``
    segment carries, per reactor table, the current after-image of
    every key dirtied since the parent segment (``rows``) and the keys
    deleted since then (``deleted``).  ``truncate_tids`` records the
    per-container WAL truncation watermark this segment authorized —
    always at or below its ``tid_watermarks`` and floored by pinned
    MVCC snapshots, replica apply positions, and in-flight migration
    watermarks (see ``DurabilityManager.safe_truncation_tid``).
    """

    seq: int
    kind: str
    parent_seq: int | None
    taken_at_us: float
    #: reactor -> table -> list of row after-images.
    rows: dict[str, dict[str, list[dict[str, Any]]]] = \
        field(default_factory=dict)
    #: reactor -> table -> list of deleted primary keys.
    deleted: dict[str, dict[str, list[list[Any]]]] = \
        field(default_factory=dict)
    #: container id -> last issued commit TID at snapshot time.
    tid_watermarks: dict[int, int] = field(default_factory=dict)
    #: container id -> WAL truncation TID this segment authorized.
    truncate_tids: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "parent_seq": self.parent_seq,
            "taken_at_us": self.taken_at_us,
            "rows": self.rows,
            "deleted": self.deleted,
            "tid_watermarks": {str(k): v for k, v
                               in self.tid_watermarks.items()},
            "truncate_tids": {str(k): v for k, v
                              in self.truncate_tids.items()},
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "CheckpointSegment":
        return CheckpointSegment(
            seq=data["seq"],
            kind=data["kind"],
            parent_seq=data["parent_seq"],
            taken_at_us=data["taken_at_us"],
            rows=data["rows"],
            deleted=data["deleted"],
            tid_watermarks={int(k): v for k, v
                            in data["tid_watermarks"].items()},
            truncate_tids={int(k): v for k, v
                           in data["truncate_tids"].items()},
        )


@dataclass
class CheckpointManifest:
    """The chained sequence of checkpoint segments of one database."""

    segments: list[CheckpointSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate_chain()

    def _validate_chain(self) -> None:
        prev: CheckpointSegment | None = None
        for segment in self.segments:
            if prev is None:
                if segment.kind != FULL or \
                        segment.parent_seq is not None:
                    raise SimulationError(
                        "manifest must start with an unparented full "
                        "segment")
            elif segment.kind != INCREMENTAL or \
                    segment.parent_seq != prev.seq:
                raise SimulationError(
                    f"segment {segment.seq} does not chain to "
                    f"{prev.seq}")
            prev = segment

    @property
    def empty(self) -> bool:
        return not self.segments

    def tid_watermarks(self) -> dict[int, int]:
        """The newest segment's per-container watermarks (what tail
        replay starts above)."""
        if not self.segments:
            return {}
        return dict(self.segments[-1].tid_watermarks)

    def materialize(self
                    ) -> dict[str, dict[str, list[dict[str, Any]]]]:
        """Collapse the chain into one ``reactor -> table -> rows``
        image.

        Newer segments overwrite older images key-by-key; deletions
        remove keys.  Segment rows carry a ``__pk`` sidecar (tuple
        keys do not survive JSON) which is stripped from the image's
        plain rows.
        """
        state: dict[str, dict[str, dict[tuple, dict[str, Any]]]] = {}
        for segment in self.segments:
            for reactor, tables in segment.rows.items():
                for table, rows in tables.items():
                    bucket = state.setdefault(reactor, {}) \
                        .setdefault(table, {})
                    for row in rows:
                        pk = row.get("__pk")
                        if pk is None:
                            raise SimulationError(
                                f"checkpoint row for {reactor}."
                                f"{table} in segment {segment.seq} "
                                "lacks a __pk sidecar")
                        bucket[tuple(pk)] = {
                            k: v for k, v in row.items()
                            if k != "__pk"
                        }
            for reactor, tables in segment.deleted.items():
                for table, pks in tables.items():
                    bucket = state.setdefault(reactor, {}) \
                        .setdefault(table, {})
                    for pk in pks:
                        bucket.pop(tuple(pk), None)
        return {
            reactor: {table: list(bucket.values())
                      for table, bucket in tables.items()}
            for reactor, tables in state.items()
        }

    def to_json(self) -> str:
        return json.dumps(
            {"segments": [s.to_json() for s in self.segments]})

    @staticmethod
    def from_json(text: str) -> "CheckpointManifest":
        data = json.loads(text)
        return CheckpointManifest(segments=[
            CheckpointSegment.from_json(s) for s in data["segments"]
        ])


