"""Two-phase commit across database containers.

A root transaction commits through :func:`commit` over the containers
it touched (paper Section 3.2.2): phase one runs the container
scheme's validation on every involved container (OCC checks its insert
keys, read set and scanned structures; 2PL re-checks the wound flag —
its locks are already held; passthrough does nothing), phase two
installs the writes with a globally maximal commit TID or aborts
everywhere.  The runtime calls :func:`commit` inside one call to the
backend's ``guarded`` over the participants, so both phases — and the
publish and completion bookkeeping after them — are one atomic
section: OCC needs no write locks between them.  The coordinator is
scheme-agnostic: participants are ``(manager, session)`` pairs of
whatever :class:`~repro.concurrency.base.ConcurrencyControl` the
deployment selected, so cross-container commits work identically under
every scheme, and a single-container commit is the same protocol over
one participant.

The coordinator is pure logic — the transaction executor drives it and
charges the simulated per-container communication costs around each
phase, so that commit latency grows with the number of containers
spanned exactly as in the paper's cost breakdowns.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.concurrency.base import CCSession, ConcurrencyControl
from repro.errors import CCAbort

Participant = tuple[ConcurrencyControl, CCSession]


class CommitOutcome(NamedTuple):
    """Result of a commit attempt."""

    committed: bool
    commit_tid: int
    containers: int
    writes: int
    reason: str | None = None
    #: ``(container id, RedoRecord)`` per participant that logged
    #: writes, in participant order: what the runtime publishes once
    #: every participant has installed.
    records: tuple = ()


def commit(participants: list[Participant],
           now_us: float) -> CommitOutcome:
    """Validate and install one root transaction's closed set of
    commit participants.

    ``participants`` must be non-empty and ordered by container id —
    the deterministic global validation order that keeps simulations
    reproducible and names the first refusal as the abort reason
    (``RootTransaction.participants()`` guarantees it; manual callers
    sort first).

    On a validation conflict every participant — the validated prefix,
    the failing one and the unvalidated rest — is rolled back in
    participant order.
    """
    if not participants:
        raise ValueError("a commit needs at least one participant")
    floor = 0
    try:
        for manager, session in participants:
            tid_floor = manager.validate(session)
            if tid_floor > floor:
                floor = tid_floor
    except CCAbort as conflict:
        # validate() counted the abort; roll back without
        # re-attributing a reason.
        abort(participants, reason=None)
        return CommitOutcome(False, 0, len(participants), 0,
                             str(conflict))
    commit_tid = 0
    for manager, __ in participants:
        tid = manager.tids.next_tid(now_us, at_least=floor)
        if tid > commit_tid:
            commit_tid = tid
    writes = 0
    records = []
    for manager, session in participants:
        count, record = manager.install(session, commit_tid)
        writes += count
        if record is not None:
            records.append((manager.container_id, record))
    return CommitOutcome(True, commit_tid, len(participants), writes,
                         None, tuple(records))


def abort(participants: list[Participant],
          reason: str | None = "user") -> None:
    """Abort everywhere (user aborts, safety violations, or — with
    ``reason=None`` — cleanup after a CC-initiated abort that was
    already counted at its raise site)."""
    for manager, session in participants:
        manager.abort(session, reason=reason)
