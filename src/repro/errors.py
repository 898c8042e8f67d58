"""Exception hierarchy for the reactor database.

All library errors derive from :class:`ReactorError` so applications can
catch everything from this package with a single ``except`` clause.
Transaction-control exceptions (aborts) form their own subtree because
the runtime treats them as control flow: they terminate the root
transaction and are reported as abort outcomes, not as bugs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any


class ReactorError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReactorError):
    """A schema definition or a row violated schema rules."""


class QueryError(ReactorError):
    """A query referenced unknown tables/columns or was malformed."""


class UnknownReactorError(ReactorError):
    """A call referenced a reactor name that was never declared."""


class UnknownProcedureError(ReactorError):
    """A call referenced a procedure not registered on the reactor type."""


class DeploymentError(ReactorError):
    """A deployment configuration is invalid or inconsistent."""


class ReplicationError(ReactorError):
    """The replication subsystem was misconfigured or misused."""


class MigrationError(ReactorError):
    """An online reactor migration was misconfigured or misused."""


class SimulationError(ReactorError):
    """The discrete-event simulator detected an internal inconsistency."""


class TransactionAbort(ReactorError):
    """Base class for every condition that aborts a root transaction."""


class UserAbort(TransactionAbort):
    """The application logic requested an abort (``ctx.abort(...)``)."""


class ReadOnlyViolation(UserAbort):
    """A read-only root transaction attempted a mutation.

    Raised uniformly on every mutation path (insert, update, delete) of
    a session whose root was declared read-only — whether the session
    is a validated read session on the primary, a replica-routed read
    session, or a multi-version snapshot session.  Subclasses
    :class:`UserAbort` because the runtime attributes it like an
    application abort: the transaction was healthy, the application
    broke its own read-only declaration.
    """


class CCAbort(TransactionAbort):
    """Base class for aborts initiated by a concurrency-control scheme.

    The runtime distinguishes these from user aborts when attributing
    abort reasons: a :class:`CCAbort` means the scheme killed an
    otherwise healthy transaction to preserve isolation.
    """


class ValidationAbort(CCAbort):
    """OCC validation failed: an insert key was taken, a read was
    stale, or a scanned structure changed (a phantom)."""


class LockConflictAbort(CCAbort):
    """2PL NO_WAIT: a lock request conflicted with a concurrent holder."""


class DeadlockAvoidanceAbort(CCAbort):
    """2PL WAIT_DIE: the requester was younger than a conflicting lock
    holder and died rather than wait (deadlock avoidance)."""


class WoundAbort(CCAbort):
    """2PL WAIT_DIE: this transaction was wounded (preempted) by an
    older transaction requesting a lock it held."""


class MigrationAbort(CCAbort):
    """A transaction was killed by the online-migration subsystem: a
    sub-call parked for a migrating reactor could not be replayed
    because the migration was cancelled (container failure)."""


class DangerousStructureAbort(TransactionAbort):
    """The dynamic intra-transaction safety condition of Section 2.2.4.

    Raised when a sub-transaction is invoked on a reactor that is already
    executing a *different* sub-transaction of the same root transaction,
    which would break the illusion of a single logical thread of control
    per reactor.
    """


class RecordNotFound(ReactorError):
    """A point read/update/delete referenced a missing primary key."""


class DuplicateKeyError(ReactorError):
    """An insert collided with an existing primary key."""


def read_config_keys(data: Mapping[str, Any], what: str,
                     keys: Mapping[str, type],
                     required: Iterable[str] = ()) -> dict[str, Any]:
    """The one strict reader behind every config ``from_dict``.

    Returns the entries of ``data`` as keyword arguments for the config
    class, so an absent key takes the class's own default (each default
    is stated once).  A key outside ``keys``, a value that is not of
    the type ``keys`` names (an ``int`` is accepted for ``float``; a
    ``bool`` is never a number, and ``"false"`` is never a ``bool``) or
    a missing ``required`` key raises :class:`DeploymentError` naming
    the key: a typo in a config file must fail loudly, not run the
    wrong deployment.  Lives here because every config module already
    imports this one.
    """
    if not isinstance(data, Mapping):
        raise DeploymentError(
            f"{what} config must be a mapping of keys, got {data!r}")
    for key in required:
        if key not in data:
            raise DeploymentError(f"missing required {what} key {key!r}")
    fields = {}
    for key, value in data.items():
        if key not in keys:
            raise DeploymentError(
                f"unknown {what} key {key!r}; expected one of "
                f"{', '.join(sorted(keys))}"
            )
        kind = keys[key]
        if kind is float and type(value) is int:
            value = float(value)
        if not isinstance(value, kind) or \
                (kind is not bool and isinstance(value, bool)):
            raise DeploymentError(
                f"{what} key {key!r} must be of type "
                f"{kind.__name__}, got {value!r}"
            )
        fields[key] = value
    return fields
