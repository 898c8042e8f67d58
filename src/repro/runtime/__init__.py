"""Execution runtime: executors, containers, tasks, futures.

This package realizes ReactDB's architecture (paper Section 3): a
collection of isolated containers, each with transaction executors
(request queue + cooperative thread pool pinned to a core), transaction
routing, asynchronous sub-transaction dispatch with asymmetric
communication costs, and the dynamic intra-transaction safety
condition.

Public exports: :class:`Container`, :class:`TransactionExecutor` (one
:class:`~repro.runtime.executor.Task` per request, queued and then
executed), :class:`SimFuture` /
:class:`ThreadSafeFuture`, the procedure effects (:class:`CallEffect`,
:class:`GetEffect`, :class:`ChargeEffect`), the root-transaction
bookkeeping (:class:`RootTransaction`, :class:`TxnStats`,
:data:`CATEGORIES`), and the execution backends
(:func:`create_backend`, :class:`ThreadsBackend`; the default backend
is :class:`repro.sim.scheduler.SimScheduler` itself).
"""

from repro.runtime.backend import create_backend
from repro.runtime.container import Container
from repro.runtime.effects import CallEffect, ChargeEffect, GetEffect
from repro.runtime.executor import TransactionExecutor
from repro.runtime.futures import SimFuture, ThreadSafeFuture
from repro.runtime.threads import ThreadsBackend
from repro.runtime.transaction import CATEGORIES, RootTransaction, TxnStats

__all__ = [
    "Container",
    "TransactionExecutor",
    "SimFuture",
    "ThreadSafeFuture",
    "ThreadsBackend",
    "create_backend",
    "CallEffect",
    "GetEffect",
    "ChargeEffect",
    "RootTransaction",
    "TxnStats",
    "CATEGORIES",
]
