"""Concurrency control: pluggable schemes, epochs/TIDs, and 2PC.

The scheme a database runs under is a deployment-time choice
(``DeploymentConfig.cc_scheme``): Silo-style OCC
(:mod:`repro.concurrency.occ`), two-phase locking with NO_WAIT or
WAIT_DIE conflict resolution (:mod:`repro.concurrency.locking`), or
the explicit no-CC passthrough
(:class:`~repro.concurrency.base.PassthroughCC`).  Snapshot-isolated
read-only roots (:mod:`repro.concurrency.mvcc`) are a separate
read-side switch, ``DeploymentConfig.snapshot_reads``, that works
under every scheme.  All schemes
implement the :class:`~repro.concurrency.base.ConcurrencyControl`
protocol; every transaction commits through
:func:`repro.concurrency.coordinator.commit` — one two-phase protocol
over the containers it touched, regardless of scheme.  Correctness
rests on Theorem 2.7 of the paper: a serializable scheduler for the
classic transactional model implements one for the reactor model (see
:mod:`repro.formal` for the executable formalization).

Public exports: the scheme protocol (:class:`ConcurrencyControl`,
:class:`CCSession`, :class:`CCStats`, :class:`WriteIntent`,
:class:`ScanResult`), the scheme table (:func:`create_cc_scheme` and
its names, :data:`BUILTIN_CC_SCHEMES`), the explicit no-CC
:class:`PassthroughCC`, and the coordinator's result
(:class:`CommitOutcome`; the protocol itself is
``coordinator.commit`` / ``coordinator.abort``).
"""

from functools import partial

from repro.concurrency.base import (
    CCSession,
    CCStats,
    ConcurrencyControl,
    PassthroughCC,
    ScanResult,
    WriteIntent,
)
from repro.concurrency.coordinator import CommitOutcome
from repro.concurrency.locking import (
    NO_WAIT,
    WAIT_DIE,
    LockingCC,
    LockingSession,
    LockManager,
)
from repro.concurrency.mvcc import SnapshotSession
from repro.concurrency.occ import ConcurrencyManager, OCCSession
from repro.concurrency.tid import (
    EPOCH_PERIOD_US,
    EpochManager,
    TidGenerator,
    make_tid,
)
from repro.errors import DeploymentError

#: Every deployment-selectable scheme: its name, and the factory
#: called as ``factory(container_id, epochs)`` once per container at
#: database build time.
_CC_SCHEMES = {
    "occ": ConcurrencyManager,
    "2pl_nowait": partial(LockingCC, policy=NO_WAIT),
    "2pl_waitdie": partial(LockingCC, policy=WAIT_DIE),
    "none": PassthroughCC,
}

#: The scheme names ``DeploymentConfig.cc_scheme`` accepts.
BUILTIN_CC_SCHEMES = tuple(_CC_SCHEMES)


def create_cc_scheme(name: str, container_id: int,
                     epochs: EpochManager) -> ConcurrencyControl:
    """Instantiate the scheme ``name`` for one container."""
    try:
        factory = _CC_SCHEMES[name]
    except KeyError:
        raise DeploymentError(
            f"unknown cc_scheme {name!r}; expected one of "
            f"{', '.join(BUILTIN_CC_SCHEMES)}"
        ) from None
    return factory(container_id, epochs)


__all__ = [
    "BUILTIN_CC_SCHEMES",
    "CCSession",
    "CCStats",
    "ConcurrencyControl",
    "ConcurrencyManager",
    "OCCSession",
    "SnapshotSession",
    "PassthroughCC",
    "LockingCC",
    "LockingSession",
    "LockManager",
    "ScanResult",
    "WriteIntent",
    "CommitOutcome",
    "EpochManager",
    "TidGenerator",
    "create_cc_scheme",
    "make_tid",
    "EPOCH_PERIOD_US",
]
