"""Replica containers: passive log-applying copies of a primary.

A :class:`ReplicaContainer` is a full :class:`~repro.runtime.container.
Container` — its own concurrency manager and transaction executors on
separate simulated cores (a log-shipping replica models another
machine) — holding *shadow reactors*: same names and types as the
primary container's reactors, with private table state materialized
exclusively from the primary's shipped redo records (plus the mirrored
non-transactional bulk load).

While in the ``"replica"`` role it serves only read-only root
transactions (bounded-staleness reads; the runtime refuses writes of
read-only roots at buffering time).  On failover it is promoted: its
applied log prefix becomes the new primary redo log, its shadow
reactors are re-registered in the database's routing tables, and it
starts accepting read-write transactions.
"""

from __future__ import annotations

from typing import Any

from repro.concurrency.base import ConcurrencyControl
from repro.core.reactor import Reactor
from repro.durability.wal import RedoRecord, apply_record_to
from repro.runtime.container import Container

ROLE_REPLICA = "replica"
ROLE_PRIMARY = "primary"


class ReplicaContainer(Container):
    """One replica of one primary container."""

    def __init__(self, replica_id: int, primary: Container,
                 database: Any, concurrency: ConcurrencyControl) -> None:
        super().__init__(primary.container_id, database, concurrency)
        #: Globally unique replica index (for routing/debug).
        self.replica_id = replica_id
        self.role = ROLE_REPLICA
        #: Redo records applied so far, sealed, in arrival order — by
        #: construction a prefix of the primary's shipped sequence
        #: (the formal audit certifies exactly that).
        self.applied_records: list[bytes] = []
        self.applied_tids: set[int] = set()
        #: Highest commit TID applied (0 when nothing arrived yet).
        self.applied_tid = 0
        #: Floor for snapshot pins: migration re-homing seeds shadows
        #: at the source watermark, so the replica's materialized
        #: position is max(applied_tid, snapshot_floor) — a fresh pin
        #: below the floor would miss the seeded state.
        self.snapshot_floor = 0
        self._shadows: dict[str, Reactor] = {}
        #: reactor name -> applied-record index before which shipped
        #: entries for that reactor are skipped.  Set when an online
        #: migration re-homes a reactor here: the shadow is seeded from
        #: the migration snapshot, and any *older* entries for the same
        #: name still in the primary's history (the reactor lived here
        #: before) must not replay over it.
        self.reactor_fences: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Shadow reactors
    # ------------------------------------------------------------------

    def add_shadow(self, primary_reactor: Reactor,
                   pin: bool) -> Reactor:
        """Create this replica's shadow of one primary reactor.

        Shadow tables join the database's storage coordinator: log
        applies then install *versions*, so snapshot reads pinned at
        this replica's applied watermark stay stable while newer
        records keep applying underneath them.
        """
        shadow = Reactor(primary_reactor.name, primary_reactor.rtype)
        shadow.container = self
        # Scoped to this replica: only reads pinned *here* (at the
        # applied watermark) retain shadow history, and replica pins
        # keep no unreachable history on primaries.
        self.database.storage.adopt(shadow, scope=self)
        executor = self.executors[
            primary_reactor.affinity_executor.executor_id
            % len(self.executors)]
        shadow.affinity_executor = executor
        if pin:
            shadow.pinned_executor = executor
        self._shadows[shadow.name] = shadow
        return shadow

    def shadow(self, name: str) -> Reactor | None:
        """The shadow reactor for ``name``, or ``None`` if the reactor
        is not hosted by this replica's primary container."""
        return self._shadows.get(name)

    def shadow_names(self) -> list[str]:
        return sorted(self._shadows)

    # ------------------------------------------------------------------
    # Log apply
    # ------------------------------------------------------------------

    def _table_for(self, reactor_name: str, table_name: str):
        shadow = self._shadows[reactor_name]
        return shadow.table(table_name)

    def apply_record(self, record: RedoRecord) -> None:
        """Install one shipped redo record into the shadow tables.

        One apply is a single scheduler event: readers on this replica
        never observe a torn record, and OCC read sessions that
        overlapped the apply fail validation — replica reads are always
        a consistent prefix of the primary's commit order.

        Entries for a reactor re-homed here by a migration are skipped
        while this replica's applied position is below the reactor's
        fence (the record itself still joins ``applied_records``, so
        the prefix invariant the audit certifies is untouched).
        """
        if self.reactor_fences:
            position = len(self.applied_records)
            kept = tuple(
                entry for entry in record.entries
                if position >= self.reactor_fences.get(
                    entry.reactor, 0))
            if len(kept) != len(record.entries):
                apply_record_to(
                    self._table_for,
                    RedoRecord(record.commit_tid, kept))
            else:
                apply_record_to(self._table_for, record)
        else:
            apply_record_to(self._table_for, record)
        self.applied_records.append(record.sealed)
        self.applied_tids.add(record.commit_tid)
        if record.commit_tid > self.applied_tid:
            self.applied_tid = record.commit_tid
        # Post-promotion commits must exceed everything applied.
        self.concurrency.tids.advance_to(record.commit_tid)
        # Apply CPU is burned on the replica's first core (bookkeeping
        # only: applies are events, not executor tasks).
        if self.executors:
            costs = self.database.costs
            self.executors[0].busy_time += \
                costs.repl_apply_per_write * len(record.entries)

    def mirror_load(self, reactor_name: str, table_name: str,
                    rows: list[dict[str, Any]], tid: int = 0) -> None:
        """Mirror a non-transactional bulk load (benchmark setup) —
        bulk loads bypass the redo log, so they are copied directly.
        ``load_row`` copies each row image, so no defensive copy.
        Migration re-homing passes the snapshot watermark as ``tid``
        so the seeded rows carry their true as-of position: a snapshot
        reader pinned below the watermark must not see migrated-in
        state from its future."""
        table = self._table_for(reactor_name, table_name)
        for row in rows:
            table.load_row(row, tid=tid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ReplicaContainer(primary={self.container_id}, "
                f"replica_id={self.replica_id}, role={self.role}, "
                f"applied={len(self.applied_records)})")
