"""Futures (promises) for asynchronous procedure calls.

Invoking a procedure on another reactor returns a :class:`SimFuture`
(the paper's promise, after Liskov & Shrira).  The calling code can
wait on it, call other procedures first, or never touch it — the
runtime implicitly synchronizes on all outstanding futures when the
enclosing (sub-)transaction completes.

``remote`` records whether the call crossed transaction executors,
which determines whether consuming the result pays the expensive
receive-path cost Cr (a thread switch) or only a flag check.

:class:`SimFuture` is single-threaded (the simulation's event loop is
serial); :class:`ThreadSafeFuture` is the drop-in used by the
``threads`` execution backend, where resolver and waiter live on
different OS threads — state transitions run under a per-future lock
and a blocking :meth:`ThreadSafeFuture.wait` is added for code that
genuinely parks an OS thread.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import SimulationError

_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"


class SimFuture:
    """Result placeholder for an asynchronous sub-transaction."""

    __slots__ = ("state", "value", "error", "remote", "consumed",
                 "birth_seq", "_waiter", "_waiter_args", "target_reactor")

    def __init__(self, remote: bool, target_reactor: str) -> None:
        self.state = _PENDING
        self.value: Any = None
        self.error: BaseException | None = None
        self.remote = remote
        #: Set when application code (or the implicit frame-end sync)
        #: consumed the result.
        self.consumed = False
        #: Task effect counter at creation; used to classify waits as
        #: sync-execution vs async-execution in latency breakdowns.
        self.birth_seq = 0
        self._waiter: Callable[..., None] | None = None
        self._waiter_args: tuple = ()
        self.target_reactor = target_reactor

    @property
    def resolved(self) -> bool:
        return self.state != _PENDING

    @property
    def failed(self) -> bool:
        return self.state == _FAILED

    def resolve(self, value: Any) -> None:
        if self.state != _PENDING:
            raise SimulationError("future resolved twice")
        self.state = _RESOLVED
        self.value = value
        self._notify()

    def fail(self, error: BaseException) -> None:
        if self.state != _PENDING:
            raise SimulationError("future resolved twice")
        self.state = _FAILED
        self.error = error
        self._notify()

    def add_waiter(self, callback: Callable[..., None],
                   *args: Any) -> None:
        """At most one waiter: the task blocked on this future.

        Extra ``args`` are passed through to the callback as
        ``callback(*args, future)`` — bound arguments instead of a
        fresh closure per wait (the executor's hot path).  With no
        extra args the callback is invoked as ``callback(future)``,
        preserving the original single-argument contract.
        """
        if self._waiter is not None:
            raise SimulationError(
                "two waiters on one future: a sub-transaction result can "
                "only be awaited by its calling transaction"
            )
        self._waiter = callback
        self._waiter_args = args
        if self.state != _PENDING:
            self._notify()

    def _notify(self) -> None:
        waiter = self._waiter
        if waiter is not None and self.state != _PENDING:
            args = self._waiter_args
            self._waiter = None
            self._waiter_args = ()
            if args:
                waiter(*args, self)
            else:
                waiter(self)

    def result(self) -> Any:
        """The resolved value; raises the sub-transaction's error."""
        if not self.resolved:
            raise SimulationError("result() on unresolved future")
        self.consumed = True
        if self.state == _FAILED:
            assert self.error is not None
            raise self.error
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SimFuture({self.state}, "
                f"target={self.target_reactor!r}, remote={self.remote})")


class ThreadSafeFuture(SimFuture):
    """A :class:`SimFuture` whose resolver and waiter may be on
    different OS threads (the ``threads`` execution backend).

    The state transition (pending → resolved/failed) and the waiter
    handoff are serialized under a per-future lock; the waiter
    callback itself is invoked *outside* the lock, so a callback that
    re-enters the future (or takes backend locks) cannot deadlock
    against a concurrent ``resolve``.  Hardly any future is ever
    waited on by a parked thread, so the event :meth:`wait` parks on
    is made by the first caller that needs it.
    """

    __slots__ = ("_lock", "_event")

    def __init__(self, remote: bool, target_reactor: str) -> None:
        super().__init__(remote, target_reactor)
        self._lock = threading.Lock()
        self._event: threading.Event | None = None

    def resolve(self, value: Any) -> None:
        with self._lock:
            if self.state != _PENDING:
                raise SimulationError("future resolved twice")
            self.state = _RESOLVED
            self.value = value
            waiter, args = self._take_waiter()
            event = self._event
        if event is not None:
            event.set()
        self._invoke(waiter, args)

    def fail(self, error: BaseException) -> None:
        with self._lock:
            if self.state != _PENDING:
                raise SimulationError("future resolved twice")
            self.state = _FAILED
            self.error = error
            waiter, args = self._take_waiter()
            event = self._event
        if event is not None:
            event.set()
        self._invoke(waiter, args)

    def add_waiter(self, callback: Callable[..., None],
                   *args: Any) -> None:
        with self._lock:
            if self._waiter is not None:
                raise SimulationError(
                    "two waiters on one future: a sub-transaction "
                    "result can only be awaited by its calling "
                    "transaction"
                )
            if self.state == _PENDING:
                self._waiter = callback
                self._waiter_args = args
                return
        # Already resolved: notify immediately, outside the lock.
        self._invoke(callback, args)

    def wait(self, timeout: float | None = None) -> bool:
        """Block the calling OS thread until resolution; ``True`` when
        the future resolved within ``timeout`` seconds."""
        with self._lock:
            if self.state != _PENDING:
                return True
            event = self._event
            if event is None:
                # Made under the lock the resolver reads it under: it
                # either sees this event or has already moved `state`.
                event = self._event = threading.Event()
        return event.wait(timeout)

    def _take_waiter(self) -> tuple[Callable[..., None] | None, tuple]:
        waiter = self._waiter
        args = self._waiter_args
        self._waiter = None
        self._waiter_args = ()
        return waiter, args

    def _invoke(self, waiter: Callable[..., None] | None,
                args: tuple) -> None:
        if waiter is None:
            return
        if args:
            waiter(*args, self)
        else:
            waiter(self)
