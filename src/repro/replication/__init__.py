"""Replication: WAL log shipping, failover, read-replica routing.

The availability dimension of the paper's deployment-time
virtualization claim: a :class:`ReplicationConfig` inside the
deployment decides whether each container ships its redo log to
replica containers (``sync`` commit acks or ``async`` bounded lag),
whether read-only root transactions are served from replicas, and —
via :class:`ReplicationManager` — how a replica is promoted to primary
when its container fails.  Application code never changes.

Public exports: :class:`ReplicationConfig` (with
:data:`NO_REPLICATION` and the ``SYNC`` / ``ASYNC`` / ``NONE`` mode
constants), :class:`ReplicationManager` with its
:class:`ReplicationStats` / :class:`FailoverEvent`, and
:class:`ReplicaContainer` with the ``ROLE_PRIMARY`` /
``ROLE_REPLICA`` role markers.  The counters are the
``replication_*`` metrics of ``db.telemetry.registry`` (the apply lag
is the ``replication_lag_us`` histogram); each promotion is a
:class:`FailoverEvent` in ``db.replication.stats.failovers``.

Only the config is imported eagerly: :mod:`repro.core.deployment`
imports this package while :mod:`repro.core.database` (which the
manager needs through the durability layer) is still initializing, so
the manager/replica symbols resolve lazily on first attribute access.
"""

from repro.replication.config import (
    ASYNC,
    NO_REPLICATION,
    NONE,
    REPLICATION_MODES,
    SYNC,
    ReplicationConfig,
)

__all__ = [
    "ReplicationConfig",
    "ReplicationManager",
    "ReplicationStats",
    "ReplicaContainer",
    "FailoverEvent",
    "REPLICATION_MODES",
    "NO_REPLICATION",
    "SYNC",
    "ASYNC",
    "NONE",
    "ROLE_PRIMARY",
    "ROLE_REPLICA",
]

_LAZY = {
    "ReplicationManager": "repro.replication.manager",
    "ReplicationStats": "repro.replication.manager",
    "FailoverEvent": "repro.replication.manager",
    "ReplicaContainer": "repro.replication.replica",
    "ROLE_PRIMARY": "repro.replication.replica",
    "ROLE_REPLICA": "repro.replication.replica",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
