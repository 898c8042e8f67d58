"""Runtime history capture and serializability auditing.

Bridges the execution engine and the formal model of Section 2.3: a
:class:`HistoryRecorder` attached to a database observes every basic
operation (with its root transaction, sub-transaction and reactor
identity, in global virtual-time order) plus commit/abort events,
producing a :class:`~repro.formal.history.ReactorHistory`.  The
recorded history of any run can then be checked for conflict
serializability with the Section 2.3 machinery — an operation-level
audit complementing the state-equivalence integration tests.

Each operation is recorded where it takes effect: a validated read
when the CC session serves it (a session wrapper, any scheme), a
snapshot read with the version TID it observed (the snapshot session
reports it), a write when the commit installs it
(:meth:`HistoryRecorder.record_install`, inside the commit's
``guarded`` call, with its commit TID).  Writers and snapshot readers
are then judged in one serialization graph.  Recording is strictly
observational and adds Python-level overhead only, never virtual time.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Iterable, Mapping

from repro.concurrency.base import CCSession
from repro.durability.wal import unseal
from repro.formal.history import ReactorHistory
from repro.formal.ops import READ, WRITE, Op, abort, commit
from repro.formal.serializability import is_serializable_reactor


class HistoryRecorder:
    """Observes a database run and accumulates a reactor history.

    Reactors are numbered by name: :func:`attach_recorder` numbers
    every declared reactor up front, so the ``threads`` backend's
    workers only read the numbering, and every instance that carries
    one logical reactor — a migration successor, a replica's shadow, a
    promoted shadow — joins that reactor's items.
    """

    def __init__(self) -> None:
        self.history = ReactorHistory()
        #: reactor name -> reactor id.
        self._reactor_ids: dict[str, int] = {}

    def _reactor_id(self, reactor: Any) -> int:
        ids = self._reactor_ids
        rid = ids.get(reactor.name)
        if rid is None:
            rid = ids[reactor.name] = len(ids)
        return rid

    # -- event intake ------------------------------------------------------

    def record_install(self, txn_id: int, commit_tid: int,
                       participants: list) -> None:
        """One ``w`` per write a commit just installed, in install
        order: participant order, then ``sorted_intents()`` (a write
        the ``none`` scheme skipped has left its session's write set).

        A write belongs to the reactor owning its table, as that
        table's reads do, and to sub-transaction 0: the root's commit
        installs it, and every conflict edge projects to transactions.
        It carries ``commit_tid``, the version it creates.
        """
        append = self.history.append
        reactors = self._reactor_ids
        for __, session in participants:
            for intent in session.sorted_intents():
                table = intent.table
                append(Op(WRITE, txn_id, 0, reactors[table.owner],
                          f"{table.name}:{intent.pk!r}", commit_tid))

    def record_snapshot_read(self, session: Any, table: Any, pk: tuple,
                             observed_tid: int) -> None:
        """One ``r`` per row a snapshot session served, with the TID of
        the version it observed (0: none at or below the snapshot) and
        the session's snapshot TID.  Like a write, it belongs to
        sub-transaction 0: it stands at its root's snapshot point, not
        inside a frame."""
        self.history.append(Op(
            READ, session.txn_id, 0, self._reactor_ids[table.owner],
            f"{table.name}:{pk!r}", observed_tid, session.snapshot_tid))

    def drop_installs(self, records: Iterable[Any]) -> None:
        """Take back the writes of redo records a failover lost.

        An async replica promoted behind its primary never applied
        them: no later reader can see them, so they leave the history
        as if never installed (the replication certificate reports the
        loss).
        """
        reactors = self._reactor_ids
        lost = {(reactors[entry.reactor], f"{entry.table}:{entry.pk!r}",
                 record.commit_tid)
                for record in records for entry in record.entries}
        self.history.events = [
            event for event in self.history.events
            if not (isinstance(event, Op) and event.kind == WRITE
                    and (event.reactor, event.item, event.tid) in lost)]

    def record_commit(self, txn_id: int) -> None:
        self.history.append(commit(txn_id))

    def record_abort(self, txn_id: int) -> None:
        self.history.append(abort(txn_id))

    # -- verdicts ----------------------------------------------------------

    def is_serializable(self) -> bool:
        return is_serializable_reactor(self.history)

    def wrap(self, session: CCSession, reactor: Any,
             task: Any) -> Any:
        """Wrap one frame's CC session so its reads are observed
        (called by the execution context hook).

        A snapshot session is not wrapped: it reports each read itself,
        with the version TID it observed, to
        :meth:`record_snapshot_read`.  A validated session on a read
        replica is not recorded: the replica applies the primary's
        installs later, so neither the history's order nor a TID
        places its reads.
        """
        if session.snapshot_tid is not None:
            session.observer = self.record_snapshot_read
            return session
        if reactor.container.role == "replica":
            return session

        def subtxn_of() -> int:
            if task.frames:
                return task.frames[-1].subtxn_id
            return 0

        return _RecordingSession(session, self, self._reactor_id(reactor),
                                 subtxn_of)


class _RecordingSession:
    """CC session proxy that records an ``r`` per row the engine reads:
    a point read, each key of a multi-read, each row a scan returns,
    and the row an update merges onto or a delete tombstones (both
    join the read footprint).  Writes are recorded at install; inserts
    and everything else pass straight through.
    """

    def __init__(self, session: CCSession, recorder: HistoryRecorder,
                 rid: int, subtxn_of: Any) -> None:
        self._session = session
        self._history = recorder.history
        self._rid = rid
        self._subtxn_of = subtxn_of

    def __getattr__(self, name: str) -> Any:
        return getattr(self._session, name)

    def _read(self, table, pk, result: Any = None) -> Any:
        self._history.append(Op(READ, self._session.txn_id,
                                self._subtxn_of(), self._rid,
                                f"{table.name}:{pk!r}"))
        return result

    def read(self, table, pk):
        return self._read(table, pk, self._session.read(table, pk))

    def multi_read(self, table, pks):
        """One ``r`` per key, in key order, as a loop of reads."""
        pks = list(pks)
        result = self._session.multi_read(table, pks)
        for pk in pks:
            self._read(table, pk)
        return result

    def scan(self, table, predicate=None, **kwargs):
        from repro.relational.predicate import ALWAYS

        result = self._session.scan(
            table, predicate if predicate is not None else ALWAYS,
            **kwargs)
        primary_key_of = table.schema.primary_key_of
        for row in result.rows:
            self._read(table, primary_key_of(row))
        return result

    def update(self, table, pk, assignments):
        return self._read(table, pk,
                          self._session.update(table, pk, assignments))

    def delete(self, table, pk):
        return self._read(table, pk, self._session.delete(table, pk))


# ----------------------------------------------------------------------
# State certificates (black-box, after Huang et al.): one replay
# oracle, one live-table reader
# ----------------------------------------------------------------------

#: A flat table state: ``(reactor, table) -> {primary key: row}``,
#: with no empty bucket (an untouched table and an emptied one are the
#: same "no rows" state).
_State = dict[tuple[str, str], dict[tuple, dict]]


def _replay(database: Any,
            base_rows: Iterable[tuple[tuple[str, str], Iterable[dict]]],
            records: Iterable[Any],
            fences: Mapping[str, int] | None = None) -> _State:
    """The independent replay oracle every state certificate compares
    live tables against: ``base_rows`` (``((reactor, table), rows)``
    pairs, keyed through ``database``'s schemas) overwritten by the
    entries of ``records``, in order.

    ``fences`` (reactor name -> record index) reproduces replication's
    online-migration skip rule: entries for a reactor re-homed into the
    container mid-run are ignored below the fence — the migration
    snapshot in the base rows supersedes history from any previous
    residence (see :class:`repro.replication.replica.ReplicaContainer`).

    Rows are copied in, never shared: the oracle mutates neither a log
    row nor a live one.
    """
    state: _State = {}
    fences = fences or {}
    for (reactor_name, table_name), rows in base_rows:
        schema = database.reactor(reactor_name).table(table_name).schema
        bucket = state.setdefault((reactor_name, table_name), {})
        for row in rows:
            bucket[schema.primary_key_of(row)] = dict(row)
    for index, record in enumerate(records):
        for entry in record.entries:
            if index < fences.get(entry.reactor, 0):
                continue
            bucket = state.setdefault((entry.reactor, entry.table), {})
            if entry.kind == "delete":
                bucket.pop(entry.pk, None)
            else:
                bucket[entry.pk] = dict(entry.row)
    return {key: rows for key, rows in state.items() if rows}


def _live_state(reactors: Iterable[tuple[str, Any]]) -> _State:
    """The committed rows of ``(name, reactor)`` pairs, in the shape
    :func:`_replay` returns (a table with no rows gets no bucket)."""
    state: _State = {}
    for name, reactor in reactors:
        for table in reactor.catalog:
            key = (name, table.name)
            primary_key_of = table.schema.primary_key_of
            for row in table.rows():
                state.setdefault(key, {})[primary_key_of(row)] = row
    return state


def certify_replication(database: Any) -> dict[str, Any]:
    """Certify every replica against its primary's commit order.

    Black-box state checking in the spirit of Huang et al.'s snapshot
    isolation auditing: for each replica the certificate asserts

    1. **prefix consistency** — the applied record sequence is exactly
       a prefix of the primary's shipped sequence (record-by-record
       equality, not just counts);
    2. **commit-order monotonicity** — applied commit TIDs strictly
       increase (Silo TIDs order conflicting transactions, so a
       monotone prefix is a serial prefix of the primary history);
    3. **state equivalence** — the replica's materialized tables equal
       an independent replay of bulk-loaded base rows plus the applied
       prefix;

    and for every failover, that promotion lost no acknowledged commit
    (``lost_acked`` empty — guaranteed under ``sync``) and reports the
    bounded async loss window (``lost_records``).
    """
    manager = database.replication
    report: dict[str, Any] = {
        "enabled": manager is not None,
        "ok": True,
        "replicas": [],
        "failovers": [],
    }
    if manager is None:
        return report

    def check(container_id: int, container: Any, records: list,
              shipped: list, role: str) -> None:
        prefix_ok = records == shipped[:len(records)]
        applied = [unseal(sealed) for sealed in records]
        tids = [r.commit_tid for r in applied]
        order_ok = all(a < b for a, b in zip(tids, tids[1:]))
        expected = _replay(
            database, manager.base_rows.get(container_id, {}).items(),
            map(unseal, shipped) if role == "primary" else applied,
            fences=getattr(container, "reactor_fences", None))
        if role == "primary":
            # A promoted replica is a primary: reactors can migrate
            # onto it (never entered into its shadow table) or away
            # from it (still there, but retired), so both sides of the
            # equivalence are scoped to the reactors the database
            # currently homes here (a migrated-away reactor's history
            # legitimately stays in the shipped order).
            resident = {name for name in database.reactor_names()
                        if database.reactor(name).container is container}
            actual = _live_state((name, database.reactor(name))
                                 for name in resident)
            expected = {key: rows for key, rows in expected.items()
                        if key[0] in resident}
        else:
            actual = _live_state((name, container.shadow(name))
                                 for name in container.shadow_names())
        state_ok = actual == expected
        entry = {
            "container_id": container_id,
            "replica_id": container.replica_id,
            "role": role,
            "applied_records": len(records),
            "shipped_records": len(shipped),
            "prefix_ok": prefix_ok,
            "commit_order_ok": order_ok,
            "state_ok": state_ok,
            "ok": prefix_ok and order_ok and state_ok,
        }
        report["replicas"].append(entry)
        if not entry["ok"]:
            report["ok"] = False

    for cid in sorted(manager.replicas):
        shipped = manager.durability.installed[cid]
        for replica in manager.replicas[cid]:
            check(cid, replica, replica.applied_records, shipped,
                  role="replica")
        promoted = database.containers[cid]
        if promoted.role == "primary":
            # A promoted replica: its full state must replay from the
            # (re-anchored) shipped order it now owns.
            check(cid, promoted, promoted.applied_records, shipped,
                  role="primary")

    for event in manager.failovers:
        entry = {
            "container_id": event.container_id,
            "replica_id": event.replica_id,
            "at_us": event.at_us,
            "lost_acked": list(event.lost_acked),
            "lost_records": event.lost_records,
            "zero_committed_loss": not event.lost_acked,
            # Lost records whose commit survives in another container:
            # cross-container transactions the failover tore apart.
            # Sync drains the channel at kill, so this is provably
            # empty there; under async it is the documented price of
            # the lag window and is reported, not failed.
            "atomicity_breaks": list(event.atomicity_breaks),
        }
        report["failovers"].append(entry)
        if event.lost_acked:
            report["ok"] = False
    return report


def certify_migration(database: Any) -> dict[str, Any]:
    """Black-box certification of completed online migrations.

    For the most recent completed migration of each reactor the
    certificate asserts, from observable state only:

    1. **routing** — the reactor resolves to its destination
       container, the source instance is retired and names the
       successor (``migrated_to``), and the routing epoch advanced by
       exactly one;
    2. **source quiescence** — the source container's redo log gained
       no entry for the reactor after the snapshot watermark: the
       drain barrier really ended all writes at the old home (no
       write was torn off onto dead storage);
    3. **state replay equivalence** — the snapshot after-images plus
       the destination redo records for the reactor above the
       watermark replay to exactly the reactor's live table state, the
       same replay argument recovery and replication certification
       rest on.

    Earlier migrations of a re-migrated reactor are listed as
    ``superseded`` (their destination state has legitimately moved
    on); cancelled migrations are listed, not failed.  Replaying
    through a log a checkpoint truncated below the watermark — or one
    a destination failover replaced after the flip — is reported with
    ``log_checked: false`` instead of a spurious failure.
    """
    manager = database.migration
    report: dict[str, Any] = {
        "enabled": bool(manager.events),
        "ok": True,
        "migrations": [],
    }
    completed = [m for m in manager.events if m.state == "done"]
    last_for = {m.reactor_name: m for m in completed}

    for migration in manager.events:
        entry: dict[str, Any] = {
            "reactor": migration.reactor_name,
            "src": migration.src_cid,
            "dst": migration.dst_cid,
            "state": migration.state,
            "rows_copied": migration.rows_copied,
            "superseded":
                last_for.get(migration.reactor_name) is not migration,
        }
        report["migrations"].append(entry)
        if migration.state != "done" or entry["superseded"]:
            continue

        name = migration.reactor_name
        live = database.reactor(name)
        entry["routing_ok"] = (
            live.container.container_id == migration.dst_cid
            and migration.source.retired
            and migration.source.migrated_to is migration.target
            and migration.target.epoch == migration.source.epoch + 1
        )

        src_log = migration.src_log
        entry["src_quiet_ok"] = src_log is None or not any(
            entry_.reactor == name
            for record in map(unseal, src_log.records)
            if record.commit_tid > migration.watermark
            for entry_ in record.entries
        )

        dst_log = migration.dst_log
        dst_live_log = \
            database.containers[migration.dst_cid].concurrency.redo_log
        log_checked = (
            dst_log is not None
            # A destination failover after the flip re-anchored the
            # container onto a fresh log (promotion seeding): the
            # flip-time anchor is frozen at the kill and can no longer
            # replay to the live state.  The promoted container's own
            # state equivalence is certified by certify_replication.
            and dst_log is dst_live_log
            and dst_log.truncated_through <= migration.watermark)
        if log_checked:
            # Replay: snapshot + destination records above the
            # watermark, scoped to the migrated reactor.
            replayed = _replay(database, (), [
                *migration.snapshot_records,
                *(record for record in map(unseal, dst_log.records)
                  if record.commit_tid > migration.watermark)])
            expected = {key: rows for key, rows in replayed.items()
                        if key[0] == name}
            entry["state_ok"] = _live_state([(name, live)]) == expected
        entry["log_checked"] = log_checked
        entry["ok"] = (entry["routing_ok"] and entry["src_quiet_ok"]
                       and entry.get("state_ok", True))
        if not entry["ok"]:
            report["ok"] = False
    return report


def certify_snapshot_isolation(recorder: Any) -> dict[str, Any]:
    """Black-box certification of the snapshot reads a recorder saw.

    In the spirit of Huang et al.'s black-box snapshot-isolation
    checking, each recorded snapshot read names the version TID it
    observed and its root's snapshot TID, and the recorded installs
    give every key's version order (commit TIDs).  For every snapshot
    read the certificate asserts:

    1. **one snapshot per root** — all reads of one root share one
       snapshot TID;
    2. **no future reads** — the observed version TID never exceeds
       the snapshot TID: nothing that committed after the snapshot
       leaked in;
    3. **newest-at-snapshot** — no recorded write of the key has a TID
       in ``(observed, snapshot]`` (a bisect into the key's write
       TIDs): the read skipped no write it should have seen.  Holding
       for every key a root read, this makes the observed cut one
       transaction-consistent prefix, not a per-key mixture.

    Reads resolved below the recorded writes (bulk loads, writes from
    before the recorder attached, migration seeds re-stamped at their
    watermark) pass rule 3.  Tampered histories — an observed TID
    nudged below the newest qualifying write or above the snapshot, a
    snapshot TID changed within a root — are rejected.  Whether the
    snapshot readers also serialize with the writers is the
    serializability certificate's question, over the same history.
    """
    report: dict[str, Any] = {
        "enabled": recorder is not None,
        "ok": True,
        "reads_checked": 0,
        "roots_checked": 0,
        "violations": [],
    }
    if recorder is None:
        return report
    ops = recorder.history.operations()
    writes: dict[tuple[int, str], list[int]] = {}
    for op in ops:
        if op.kind == WRITE:
            writes.setdefault((op.reactor, op.item), []).append(op.tid)
    for tids in writes.values():
        tids.sort()
    snapshots: dict[int, int] = {}
    for op in ops:
        if op.snapshot is None:
            continue
        report["reads_checked"] += 1
        tids = writes.get((op.reactor, op.item), ())
        later = bisect_right(tids, op.tid)
        if snapshots.setdefault(op.txn, op.snapshot) != op.snapshot:
            kind = "split-snapshot"
        elif op.tid > op.snapshot:
            kind = "future-read"
        elif later < len(tids) and tids[later] <= op.snapshot:
            kind = "stale-read"
        else:
            continue
        report["ok"] = False
        report["violations"].append({
            "kind": kind, "txn_id": op.txn, "reactor": op.reactor,
            "item": op.item, "observed_tid": op.tid,
            "snapshot_tid": op.snapshot})
    report["roots_checked"] = len(snapshots)
    return report


def certify_crash_recovery(database: Any, image: Any,
                           recovered: Any) -> dict[str, Any]:
    """Black-box certification of a kill-at-arbitrary-epoch crash.

    ``image`` is the :class:`~repro.durability.recovery.CrashImage` a
    :meth:`DurabilityManager.crash` produced on ``database`` (the
    pre-crash primary), ``recovered`` the database rebuilt from it.
    Against the durability manager's independently kept append order
    (the reference sequence, like replication's ``shipped``), the
    certificate asserts:

    1. **no acked-commit loss** — every commit a client saw
       acknowledged is covered by the image: for each container that
       installed it, its record is in the durable log prefix or below
       the checkpoint watermark.  Group/sync acknowledgement waits on
       every participant's flush, so this holds by construction;
       under ``async`` the flush window *can* lose acked commits —
       the loss is reported (``lost_acked``) and tolerated for that
       mode only, mirroring async replication's lag-window contract.
    2. **no resurrection of unacked commits** — each image log is
       exactly the expected durable sub-prefix of the container's
       append order (record-by-record, so a tampered row, an injected
       record, or a reordering is rejected), with commit TIDs
       strictly increasing; torn cross-container commits were dropped
       *everywhere* (a transaction recovers atomically or not at
       all), and only unacknowledged commits ever appear torn.
    3. **state-replay equivalence** — the recovered database's live
       tables equal an independent flat replay of the materialized
       checkpoint manifest plus the image records above each
       container's checkpoint watermark, in global TID order — the
       same replay argument the replication and migration
       certificates rest on.
    """
    manager = database.durability
    report: dict[str, Any] = {
        "enabled": manager is not None,
        "ok": True,
        "mode": getattr(image, "mode", None),
        "at_us": getattr(image, "at_us", None),
        "containers": [],
        "acked_checked": 0,
        "lost_acked": [],
        "zero_acked_loss": True,
        "torn_commits": sorted(
            {tid for tids in image.torn_tids.values()
             for tid in tids}) if image is not None else [],
        "state_ok": None,
    }
    if manager is None or image is None:
        report["ok"] = False
        return report

    checkpoint_wm = image.manifest.tid_watermarks()
    torn_sites = {tuple(site) for site in image.torn_sites}
    torn_by_cid: dict[int, set[int]] = {}
    for cid, pos in torn_sites:
        torn_by_cid.setdefault(cid, set()).add(pos)

    # 2. Prefix consistency per container (tamper/resurrection check).
    for cid in sorted(manager.installed):
        reference = manager.installed[cid]
        reference_tids = manager.installed_tids[cid]
        flushed = image.flushed_counts.get(cid, 0)
        truncated = image.truncated_through.get(cid, 0)
        torn = torn_by_cid.get(cid, set())
        expected = [r for pos, r in enumerate(reference[:flushed])
                    if reference_tids[pos] > truncated
                    and pos not in torn]
        got = image.logs.get(cid, [])
        prefix_ok = got == expected
        tids = [unseal(r).commit_tid for r in got]
        order_ok = all(a < b for a, b in zip(tids, tids[1:]))
        entry = {
            "container_id": cid,
            "durable_records": len(got),
            "installed_records": len(reference),
            "prefix_ok": prefix_ok,
            "commit_order_ok": order_ok,
            "ok": prefix_ok and order_ok,
        }
        report["containers"].append(entry)
        if not entry["ok"]:
            report["ok"] = False

    # Torn drops may only ever hit unacknowledged commits — under
    # sync/group, where acknowledgement waits on every participant's
    # flush.  Async acknowledges before flushing, so an acked
    # cross-container commit *can* be torn there; like async's
    # lost-acked window it is reported, not rejected (the dropped
    # sites also surface in ``lost_acked`` below).
    acked_sites = {tuple(site) for site in image.acked_sites}
    report["torn_unacked_ok"] = not (torn_sites & acked_sites)
    if not report["torn_unacked_ok"] and image.mode != "async":
        report["ok"] = False

    # 1. Acked-commit coverage, by site: each acked record must be in
    # the durable prefix (and not torn-dropped) or below its
    # container's checkpoint watermark.
    for cid, pos in sorted(acked_sites):
        report["acked_checked"] += 1
        installed_tids = manager.installed_tids.get(cid, [])
        tid = installed_tids[pos] if pos < len(installed_tids) else None
        if tid is not None and tid <= checkpoint_wm.get(cid, 0):
            continue
        if tid is not None and \
                pos < image.flushed_counts.get(cid, 0) and \
                (cid, pos) not in torn_sites:
            continue
        report["lost_acked"].append(tid if tid is not None else (cid, pos))
    if report["lost_acked"]:
        report["zero_acked_loss"] = False
        if image.mode != "async":
            report["ok"] = False

    # 3. State-replay equivalence.
    if recovered is not None:
        base = image.manifest.materialize()
        replayable = []
        for cid, records in image.logs.items():
            watermark = checkpoint_wm.get(cid, 0)
            replayable.extend(r for r in map(unseal, records)
                              if r.commit_tid > watermark)
        replayable.sort(key=lambda record: record.commit_tid)
        expected = _replay(
            recovered,
            (((reactor_name, table_name), rows)
             for reactor_name, tables in base.items()
             for table_name, rows in tables.items()),
            replayable)
        actual = _live_state((name, recovered.reactor(name))
                             for name in recovered.reactor_names())
        report["state_ok"] = actual == expected
        if not report["state_ok"]:
            report["ok"] = False
    return report


def attach_recorder(database: Any) -> HistoryRecorder:
    """Enable history recording on a database.

    The runtime consults ``database.history_recorder`` at four
    explicit hook points: the execution context wraps its CC session
    so reads are observed (a snapshot session reports its own), the
    executor reports each commit's installed writes and its
    commit/abort outcome, and a failover takes back the installs it
    lost.  Recording is strictly observational.
    """
    recorder = HistoryRecorder()
    for name in database.reactor_names():
        recorder._reactor_id(database.reactor(name))
    database.history_recorder = recorder
    return recorder


def detach_recorder(database: Any) -> None:
    """Stop recording on a database."""
    database.history_recorder = None


@contextmanager
def recording(database: Any):
    """Episode-scoped recorder lifecycle: attach a fresh
    :class:`HistoryRecorder`, yield it, and always detach on exit —
    back-to-back episodes in one process must not observe each other's
    histories (or leave a dangling recorder on an abandoned database).
    """
    recorder = attach_recorder(database)
    try:
        yield recorder
    finally:
        detach_recorder(database)


def certify_all(database: Any, recorder: Any = None,
                crash_reports: list | None = None) -> dict[str, Any]:
    """Run every applicable black-box certificate and aggregate.

    The one-call dispatcher the chaos campaigns (and any end-of-run
    audit) use: serializability and snapshot isolation from
    ``recorder`` (or the database's attached recorder), replication
    and migration certificates from live state, plus externally produced
    :func:`certify_crash_recovery` reports (crash images are taken
    mid-run, so their certificates are handed in, not re-derived).

    Returns ``{"ok", "failures", <certificate reports>}`` where
    ``failures`` lists one ``{"kind", "detail"}`` entry per failed
    certificate — inapplicable certificates (``enabled: false``) and
    reported-not-failed windows (async losses, unchecked logs) do not
    fail the aggregate, mirroring each certificate's own contract.
    """
    if recorder is None:
        recorder = database.history_recorder
    serializability = {"enabled": recorder is not None, "ok": True}
    if recorder is not None:
        serializability["ok"] = recorder.is_serializable()

    report: dict[str, Any] = {
        "ok": True,
        "failures": [],
        "serializability": serializability,
        "replication": certify_replication(database),
        "migration": certify_migration(database),
        "snapshot_isolation": certify_snapshot_isolation(recorder),
        "crash_recovery": {
            "enabled": bool(crash_reports),
            "ok": all(entry.get("ok") for entry in crash_reports or []),
            "images": len(crash_reports or []),
            "reports": list(crash_reports or []),
        },
    }
    details = {
        "serializability": "recorded history is not "
                           "conflict-serializable",
        "replication": "a replica diverged from its primary's commit "
                       "order or a failover lost acked commits",
        "migration": "a completed migration failed routing, "
                     "quiescence, or state-replay checks",
        "snapshot_isolation": "a recorded snapshot read violated its "
                              "snapshot",
        "crash_recovery": "a crash image failed recovery "
                          "certification",
    }
    for kind in ("serializability", "replication", "migration",
                 "snapshot_isolation", "crash_recovery"):
        certificate = report[kind]
        if certificate.get("enabled") and not certificate.get("ok"):
            report["ok"] = False
            report["failures"].append({"kind": kind,
                                       "detail": details[kind]})
    return report
