"""Epoch-batched commit engine: validate/install one closed epoch flat.

When a root transaction reaches its commit point, the set of
per-container sessions it closes is final — nothing can join it, and
nothing inside it changes between validation and installation.  That
closed set is a *commit epoch*, the direct analogue of the group-commit
:class:`~repro.durability.group_commit.FlushEpoch` on the durability
side: a sealed batch that one engine walks in flattened loops, instead
of each participant re-resolving its own method chain, re-sorting its
own intents, and re-deciding redo-batching per write.

:func:`run_epoch` replaces the per-participant churn of the
reference coordinator path with:

* a **single-participant fast path** (the overwhelmingly common case)
  that skips participant sorting, membership bookkeeping, and the
  generator-based commit-TID max;
* one flattened validate loop over the ordered participants, with the
  per-scheme ``validate`` hook untouched (OCC locks and checks, 2PL
  re-checks wounds, passthrough counts) so every scheme's semantics
  and stats are byte-identical;
* installation through each manager's own
  :meth:`~repro.concurrency.base.ConcurrencyControl.install` — the one
  install loop there is: it walks the session's *cached*
  :meth:`~repro.concurrency.base.CCSession.sorted_intents` (validation
  already sorted them) and installs, logs and unlocks the write set in
  one pass.

Equivalence is the contract: for any fixed seed, the batched engine
produces the same validation order, the same aborts, the same commit
TIDs, the same redo log, and the same certified histories as the
reference path.  ``tests/test_hotpath_equivalence.py`` asserts this
under every registered scheme; the reference path stays available via
:func:`set_batched` or ``REPRO_HOTPATH=reference`` for those tests and
for bisecting any future divergence.
"""

from __future__ import annotations

import os

from repro.concurrency.base import CCSession, ConcurrencyControl
from repro.errors import CCAbort

Participant = tuple[ConcurrencyControl, CCSession]

_BATCHED = os.environ.get("REPRO_HOTPATH", "batched") != "reference"


def batched_enabled() -> bool:
    """Is the epoch-batched commit path active?"""
    return _BATCHED


def set_batched(flag: bool) -> None:
    """Toggle the batched engine (``False`` = reference path).

    The reference path exists for equivalence testing and bisection;
    both paths must produce identical histories for identical seeds.
    """
    global _BATCHED
    _BATCHED = bool(flag)


def run_epoch(participants: list[Participant],
              now_us: float) -> tuple[int, int]:
    """Validate and install one root transaction's closed set of
    commit participants; returns ``(commit_tid, writes_installed)``.

    ``participants`` must already be ordered by container id — the
    deterministic global validation order that avoids distributed
    deadlock (``RootTransaction.participants()`` guarantees it; manual
    callers sort first).

    On a validation conflict every participant is rolled back (in
    participant order, matching the reference path) and the
    :class:`~repro.errors.CCAbort` propagates to the caller.
    """
    if len(participants) == 1:
        manager, session = participants[0]
        try:
            floor = manager.validate(session)
        except CCAbort:
            # validate() released its own locks and counted the
            # abort; roll back without re-attributing a reason.
            manager.abort(session, reason=None)
            raise
        commit_tid = manager.tids.next_tid(now_us, at_least=floor)
    else:
        floor = 0
        try:
            for manager, session in participants:
                tid_floor = manager.validate(session)
                if tid_floor > floor:
                    floor = tid_floor
        except CCAbort:
            # The already-validated prefix, the failing participant,
            # and the unvalidated rest roll back in participant order
            # — the same total order as the reference path's two
            # cleanup loops.
            for manager, session in participants:
                manager.abort(session, reason=None)
            raise
        commit_tid = 0
        for manager, __ in participants:
            tid = manager.tids.next_tid(now_us, at_least=floor)
            if tid > commit_tid:
                commit_tid = tid

    # Phase 2: every participant installs with the one commit TID.
    writes = 0
    for manager, session in participants:
        writes += manager.install(session, commit_tid)
    return commit_tid, writes
