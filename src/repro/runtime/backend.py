"""Pluggable execution backends behind the reactor API.

Every component of the runtime — executors, workers, the durability
flush pipeline, replication, telemetry collectors — drives itself by
scheduling callbacks on ``database.scheduler``.  That object is the
*execution backend*: the thing that decides what "time" means, where
callbacks run, and what (if anything) must be locked.  Two backends
exist:

* ``sim`` (the default): the discrete-event
  :class:`~repro.sim.scheduler.SimScheduler`, which implements the
  whole protocol itself.  Virtual microseconds, one serial event
  loop, full determinism — the certification oracle every formal
  audit and chaos campaign runs against.
* ``threads`` (:class:`~repro.runtime.threads.ThreadsBackend`): one
  OS thread per container, ``time.monotonic_ns`` clocks, lock-based
  futures — the same deployments measured in wall-clock time on real
  hardware (see ``docs/backends.md`` for the certify-then-measure
  workflow).

The backend *protocol* is the event-loop surface plus a handful of
hooks, duck-typed rather than ABC-enforced so the sim hot path pays
zero indirection.  Both backends define every row, with the same
meaning, so callers read them as plain attributes and never ask which
backend they hold:

==================  ==================================================
``now``             current time in microseconds (virtual or wall)
``at/after/soon``   schedule a callback (returns a cancellable handle)
``run(until=None)`` drive to quiescence; events due by ``until``
                    (inclusive) run before the call returns
``pending()``       live scheduled work (O(1))
``events_dispatched``  callbacks executed so far (telemetry gauge)
``post(cid, fn, *a)``  run ``fn`` on container ``cid``'s context
``busy(us, fn, *a)``   occupy the calling executor's CPU for ``us``
                    microseconds, then continue with ``fn``
``add_waiter(fut, cb, *a, container=...)``  wake a parked task on its
                    owning container's context when ``fut`` resolves
``guarded(cids, fn, *a)``  run ``fn(*a)`` as one atomic section
                    over shared database bookkeeping (txn counters,
                    snapshot pins, ...) and the named participants
                    (a commit/abort), returning its value
``future_class``    future type the runtime allocates
``name``            ``"sim"`` or ``"threads"`` (stamped into bench
                    meta blocks and telemetry exports)
``is_virtual``      ``True`` when timestamps are simulated
``attach(n)``       start serving ``n`` containers (no-op on sim)
``shutdown()``      release OS resources, idempotent (no-op on sim)
==================  ==================================================

Neither backend sheds work: admission is the wire's business (the
server's ``max_inflight``).

Deployment configs select a backend by name (``backend: sim|threads``
in :class:`~repro.core.deployment.DeploymentConfig`);
:func:`create_backend` maps the name to an instance during
``ReactorDatabase.__init__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import DeploymentError

if TYPE_CHECKING:  # sim.scheduler imports runtime.futures, so loading
    # it here would make ``import repro.sim`` a cycle through this
    # package's __init__.
    from repro.sim.scheduler import SimScheduler


def create_backend(deployment: Any) -> SimScheduler:
    """Instantiate the execution backend ``deployment.backend`` names
    (a full ``DeploymentConfig`` or any config-shaped stand-in)."""
    name = deployment.backend
    if name == "sim":
        from repro.sim.scheduler import SimScheduler

        return SimScheduler()
    if name == "threads":
        from repro.runtime.threads import ThreadsBackend

        return ThreadsBackend()
    raise DeploymentError(
        f"unknown execution backend {name!r}; expected one of "
        "sim, threads"
    )


__all__ = ["create_backend"]
