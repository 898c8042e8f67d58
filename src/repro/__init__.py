"""Reactors / ReactDB — SIGMOD 2018 reproduction.

A from-scratch Python implementation of the relational actor (reactor)
programming model and the ReactDB in-memory database system from:

    Vivek Shah and Marcos Antonio Vaz Salles.
    "Reactors: A Case for Predictable, Virtualized Actor Database
    Systems." SIGMOD 2018.

Quick start::

    from repro import (ReactorType, ReactorDatabase, shared_nothing)
    from repro.relational import make_schema, int_col, float_col

    account = ReactorType("Account", lambda: [
        make_schema("savings", [int_col("id"), float_col("balance")],
                    ["id"]),
    ])

    @account.procedure
    def deposit(ctx, amount):
        ctx.update("savings", pk=1, values={"balance": amount})

    db = ReactorDatabase(shared_nothing(2),
                         [("alice", account), ("bob", account)])

See ``examples/`` for complete applications, ``benchmarks/`` for the
reproduction of every table and figure of the paper, and ``docs/`` for
the architecture / deployment / benchmark guides.

Public exports: the programming-model surface
(:class:`~repro.core.reactor.ReactorType`,
:class:`~repro.core.database.ReactorDatabase`,
:class:`~repro.core.context.ReactorContext`), the deployment-time
knobs (:class:`~repro.core.deployment.DeploymentConfig`, the S1/S2/S3
factories, :class:`~repro.replication.config.ReplicationConfig`,
:class:`~repro.durability.config.DurabilityConfig`), the error roots
(:class:`~repro.errors.ReactorError`,
:class:`~repro.errors.TransactionAbort`,
:class:`~repro.errors.UserAbort`) and the two machine profiles.
"""

from importlib import import_module
from typing import Any

from repro.errors import ReactorError, TransactionAbort, UserAbort

#: Engine-backed exports, imported on first attribute access (PEP 562),
#: so a process that only imports a light module under ``repro`` (the
#: TCP client, the wire protocol) never loads the engine.
_LAZY = {
    "ReactorType": "repro.core",
    "ReactorDatabase": "repro.core",
    "ReactorContext": "repro.core",
    "DeploymentConfig": "repro.core",
    "shared_everything_without_affinity": "repro.core",
    "shared_everything_with_affinity": "repro.core",
    "shared_nothing": "repro.core",
    "ReplicationConfig": "repro.replication",
    "DurabilityConfig": "repro.durability.config",
    "XEON_E3_1276": "repro.sim",
    "OPTERON_6274": "repro.sim",
}


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _LAZY, name)


def lazy_export(namespace: dict[str, Any], table: dict[str, str],
                name: str) -> Any:
    """Resolve ``name`` from the module ``table`` maps it to, and keep
    it in ``namespace`` (a package's globals) so the next access is a
    plain lookup: the body of a package's PEP 562 ``__getattr__``."""
    module = table.get(name)
    if module is None:
        raise AttributeError(
            f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(import_module(module), name)
    return value


__version__ = "1.0.0"

__all__ = [
    "ReactorType",
    "ReactorDatabase",
    "ReactorContext",
    "DeploymentConfig",
    "ReplicationConfig",
    "DurabilityConfig",
    "shared_everything_without_affinity",
    "shared_everything_with_affinity",
    "shared_nothing",
    "ReactorError",
    "TransactionAbort",
    "UserAbort",
    "XEON_E3_1276",
    "OPTERON_6274",
    "__version__",
]
