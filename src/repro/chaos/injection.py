"""Resolving fault actions against a live episode.

A :class:`FaultInjector` arms every action of a schedule as a scheduler
event.  At fire time the action's *parameters* (drawn blind at
generation time) are resolved against live state — container indices
wrap, migration targets come from
:meth:`~repro.migration.manager.MigrationManager.movable_reactors` —
and an action whose preconditions no longer hold (no replica left to
promote, nothing movable, no durability manager) is **skipped**, not
errored: a schedule stays replayable verbatim even after shrinking
removed the actions that set its preconditions up.  Every applied and
skipped action is counted per kind, deterministically, so two runs of
one episode agree on the full injection record, not just the outcome.

``crash_image`` is special: it takes a
:meth:`~repro.durability.recovery.DurabilityManager.crash` image of the
running database, recovers a *fresh* database from the image into a
plain deployment, certifies the pair with
:func:`~repro.formal.audit.certify_crash_recovery`, and stores the
report for the episode's verdict — a full kill-at-arbitrary-epoch
recovery drill in the middle of the workload.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.chaos.schedule import FaultAction, FaultSchedule
from repro.core.deployment import DeploymentConfig
from repro.durability.config import DurabilityConfig
from repro.durability.recovery import recover
from repro.formal.audit import certify_crash_recovery


class FaultInjector:
    """Arms a fault schedule on a database and records what happened."""

    def __init__(self, database: Any,
                 declarations: Sequence[tuple[str, Any]]) -> None:
        self.database = database
        self.declarations = declarations
        self.applied: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        #: ``certify_crash_recovery`` reports from ``crash_image``
        #: actions, in fire order.
        self.crash_reports: list[dict[str, Any]] = []

    # ------------------------------------------------------------------

    def arm(self, schedule: FaultSchedule) -> None:
        """Schedule every action of ``schedule`` in virtual time."""
        for action in schedule.actions:
            self.database.scheduler.at(action.at_us, self._fire, action)

    def _note(self, action: FaultAction, applied: bool) -> None:
        book = self.applied if applied else self.skipped
        book[action.kind] = book.get(action.kind, 0) + 1

    def _fire(self, action: FaultAction) -> None:
        handler = getattr(self, f"_do_{action.kind}", None)
        if handler is None:
            self._note(action, False)
            return
        self._note(action, bool(handler(action)))

    # -- handlers (return True when the fault actually applied) --------

    def _do_crash_promote(self, action: FaultAction) -> bool:
        replication = self.database.replication
        if replication is None:
            return False
        cid = action.param("container", 0) % len(self.database.containers)
        if self.database.containers[cid].failed:
            return False
        if not replication.replicas.get(cid):
            return False
        replication.kill_and_promote(cid)
        return True

    def _do_migrate(self, action: FaultAction) -> bool:
        database = self.database
        if len(database.containers) < 2:
            return False
        movable = database.migration.movable_reactors()
        if not movable:
            return False
        name = movable[action.param("reactor_index", 0) % len(movable)]
        n = len(database.containers)
        dst = action.param("dst", 0) % n
        src = database.reactor(name).container.container_id
        for __ in range(n):
            if dst != src and not database.containers[dst].failed:
                break
            dst = (dst + 1) % n
        else:
            return False
        database.migrate(name, dst)
        return True

    def _do_rebalance(self, action: FaultAction) -> bool:
        if len(self.database.containers) < 2:
            return False
        self.database.rebalance()
        return True

    def _do_crash_image(self, action: FaultAction) -> bool:
        durability = self.database.durability
        if durability is None:
            return False
        image = durability.crash()
        recovered = recover(
            self._recovery_deployment(durability.mode),
            self.declarations, image.manifest, image.to_logs()).database
        report = certify_crash_recovery(self.database, image, recovered)
        self.crash_reports.append({
            "at_us": self.database.scheduler.now,
            "report": report,
        })
        return True

    def _recovery_deployment(self, mode: str) -> DeploymentConfig:
        # Recovery targets a plain deployment of the same shape: state
        # is logical, replication/migration of the crashed primary are
        # not part of what an image restores.
        from repro.core.deployment import shared_nothing
        deployment = shared_nothing(
            len(self.database.containers),
            cc_scheme=self.database.deployment.cc_scheme,
            snapshot_reads=self.database.deployment.snapshot_reads,
            durability=DurabilityConfig(enabled=True, mode=mode))
        return deployment

    def _do_slow_container(self, action: FaultAction) -> bool:
        database = self.database
        cid = action.param("container", 0) % len(database.containers)
        container = database.containers[cid]
        if container.failed:
            return False
        scaled = database.costs.container_scaled(
            float(action.param("factor", 2.0)))
        for executor in container.executors:
            executor.costs = scaled
        if database.durability is not None:
            flusher = database.durability.flushers.get(cid)
            if flusher is not None:
                flusher.costs = scaled
        return True

    def _do_lag_spike(self, action: FaultAction) -> bool:
        replication = self.database.replication
        if replication is None:
            return False
        cid = action.param("container", 0) % len(self.database.containers)
        if not replication.replicas.get(cid):
            return False
        replication.inject_lag(cid, float(action.param("extra_us",
                                                       500.0)))
        return True

    def _do_kick_flush(self, action: FaultAction) -> bool:
        durability = self.database.durability
        if durability is None:
            return False
        cid = action.param("container", 0) % len(self.database.containers)
        if cid not in durability.flushers:
            return False
        durability.kick_flush(cid)
        return True

    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        return {
            "applied": dict(sorted(self.applied.items())),
            "skipped": dict(sorted(self.skipped.items())),
        }
