"""Two-phase commit across database containers.

A root transaction that touched reactors in more than one container
commits through :class:`TwoPhaseCommit` (paper Section 3.2.2): phase
one runs the container scheme's validation on every involved container
(OCC locks the write set and checks the read set; 2PL re-checks the
wound flag — its locks are already held; passthrough does nothing),
phase two installs the writes with a globally maximal commit TID or
aborts everywhere.  The coordinator is scheme-agnostic: participants
are ``(manager, session)`` pairs of whatever
:class:`~repro.concurrency.base.ConcurrencyControl` the deployment
selected, so cross-container commits work identically under every
scheme.

The coordinator is pure logic — the transaction executor drives it and
charges the simulated per-container communication costs around each
phase, so that commit latency grows with the number of containers
spanned exactly as in the paper's cost breakdowns.
"""

from __future__ import annotations

from repro.concurrency import batch
from repro.concurrency.base import CCSession, ConcurrencyControl
from repro.errors import CCAbort

Participant = tuple[ConcurrencyControl, CCSession]


def _by_container(pair: Participant) -> int:
    return pair[0].container_id


class CommitOutcome:
    """Result of a commit attempt."""

    __slots__ = ("committed", "commit_tid", "containers", "writes",
                 "reason")

    def __init__(self, committed: bool, commit_tid: int, containers: int,
                 writes: int, reason: str | None = None) -> None:
        self.committed = committed
        self.commit_tid = commit_tid
        self.containers = containers
        self.writes = writes
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "committed" if self.committed else f"aborted({self.reason})"
        return (f"CommitOutcome({state}, tid={self.commit_tid}, "
                f"containers={self.containers}, writes={self.writes})")


class TwoPhaseCommit:
    """Commitment protocol over the containers a transaction touched."""

    __slots__ = ("participants",)

    def __init__(self, participants: list[Participant]) -> None:
        if not participants:
            raise ValueError("a commit needs at least one participant")
        self.participants = participants

    @property
    def container_count(self) -> int:
        return len(self.participants)

    def commit(self, now_us: float) -> CommitOutcome:
        """Run both phases; single-container commits skip coordination.

        The validation order over containers is deterministic
        (container id), which both avoids distributed deadlock on write
        locks and keeps simulations reproducible.

        By default both phases run through the epoch-batched engine
        (:mod:`repro.concurrency.batch`); the unbatched reference path
        below is kept verbatim for equivalence testing
        (``REPRO_HOTPATH=reference`` / :func:`batch.set_batched`).
        Both paths produce identical histories for identical seeds.
        """
        if batch.batched_enabled():
            participants = self.participants
            if len(participants) > 1:
                participants = sorted(participants, key=_by_container)
            try:
                commit_tid, writes = batch.run_epoch(
                    participants, now_us)
            except CCAbort as abort:
                return CommitOutcome(False, 0, len(participants), 0,
                                     reason=str(abort))
            return CommitOutcome(True, commit_tid, len(participants),
                                 writes)

        ordered = sorted(self.participants, key=_by_container)
        validated: list[Participant] = []
        floor = 0
        try:
            for manager, session in ordered:
                floor = max(floor, manager.validate(session))
                validated.append((manager, session))
        except CCAbort as abort:
            # validate() released its own locks and counted the abort;
            # roll back the rest without re-attributing a reason.
            for manager, session in validated:
                manager.abort(session, reason=None)
            for manager, session in ordered:
                if (manager, session) not in validated:
                    manager.abort(session, reason=None)
            return CommitOutcome(False, 0, len(ordered), 0,
                                 reason=str(abort))
        commit_tid = max(
            manager.tids.next_tid(now_us, at_least=floor)
            for manager, __ in ordered
        )
        writes = 0
        for manager, session in ordered:
            writes += manager.install(session, commit_tid)
        return CommitOutcome(True, commit_tid, len(ordered), writes)

    def abort(self, reason: str | None = "user") -> CommitOutcome:
        """Abort everywhere (user aborts, safety violations, or — with
        ``reason=None`` — cleanup after a CC-initiated abort that was
        already counted at its raise site)."""
        for manager, session in self.participants:
            manager.abort(session, reason=reason)
        return CommitOutcome(False, 0, len(self.participants), 0,
                             reason=reason or "concurrency abort")
