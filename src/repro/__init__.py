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

from repro.core import (
    DeploymentConfig,
    ReactorContext,
    ReactorDatabase,
    ReactorType,
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.durability.config import DurabilityConfig
from repro.errors import ReactorError, TransactionAbort, UserAbort
from repro.replication import ReplicationConfig
from repro.sim import OPTERON_6274, XEON_E3_1276

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
