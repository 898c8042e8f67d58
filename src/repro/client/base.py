"""The unified submission surface: one ``Client`` protocol, two paths.

Every way of getting a transaction into the system goes through the
same four calls::

    client.connect()
    handle = client.submit(reactor, proc, *args, read_only=...)
    handles = client.submit_many([(reactor, proc, args), ...])
    client.close()

and each submission returns a :class:`Submission` handle that resolves
to an :class:`Outcome`.  The two implementations are

* :class:`~repro.client.local.LocalClient` — wraps
  :meth:`ReactorDatabase.submit` directly (the zero-overhead embedded
  path; ``db.submit`` itself remains public for embedded use);
* :class:`~repro.client.tcp.TcpClient` — speaks the
  :mod:`repro.serving` wire protocol to a remote server over one
  blocking socket.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.errors import TransactionAbort
from repro.serving.protocol import Overloaded

#: One submission spec, as the bench harness has always shaped it.
Spec = tuple[str, str, tuple]


class Outcome:
    """Terminal result of one submitted transaction."""

    __slots__ = ("committed", "reason", "result", "error_code",
                 "retry_after_us")

    def __init__(self, committed: bool, reason: str | None = None,
                 result: Any = None, error_code: str | None = None,
                 retry_after_us: float = 0.0) -> None:
        self.committed = committed
        self.reason = reason
        self.result = result
        #: Wire error code (``overloaded``, ``bad_request``, ...) when
        #: the server refused the request without running it.
        self.error_code = error_code
        self.retry_after_us = retry_after_us

    @property
    def shed(self) -> bool:
        """Was this request refused by admission control?"""
        return self.error_code == "overloaded"

    def unwrap(self) -> Any:
        """The result, or a typed raise on abort/shed."""
        if self.committed:
            return self.result
        if self.shed:
            raise Overloaded(self.reason or "overloaded",
                             retry_after_us=self.retry_after_us)
        raise TransactionAbort(self.reason or "aborted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "committed" if self.committed else \
            f"failed({self.error_code or self.reason})"
        return f"Outcome({state})"


class Submission:
    """A pending submission; resolves exactly once to an Outcome.

    Thread-safe: wire clients resolve it from their reader thread
    while the caller blocks in :meth:`wait`.  ``on_done`` callbacks
    registered at submit time run on the resolving thread.  The wait
    is a latch: a bare lock, held from creation until ``resolve``
    releases it (one resolver; waiters pass it on to each other).
    """

    __slots__ = ("_outcome", "_latch", "_callbacks")

    def __init__(self) -> None:
        self._outcome: Outcome | None = None
        self._latch = threading.Lock()
        self._latch.acquire()
        self._callbacks: list[Callable[[Outcome], None]] = []

    @property
    def done(self) -> bool:
        return self._outcome is not None

    @property
    def outcome(self) -> Outcome | None:
        return self._outcome

    def add_done_callback(self,
                          fn: Callable[[Outcome], None]) -> None:
        if self._outcome is not None:
            fn(self._outcome)
            return
        self._callbacks.append(fn)

    def resolve(self, outcome: Outcome) -> None:
        if self._outcome is not None:
            return
        self._outcome = outcome
        self._latch.release()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(outcome)

    def wait(self, timeout: float | None = None) -> Outcome:
        """Block until resolved (wire clients) — the local client
        resolves during :meth:`LocalClient.drain` instead, so there
        waiting without draining raises rather than deadlocks."""
        if self._outcome is None:
            if not self._latch.acquire(
                    timeout=-1 if timeout is None else timeout):
                raise TimeoutError(
                    "submission did not complete in time")
            self._latch.release()
        return self._outcome

    def result(self, timeout: float | None = None) -> Any:
        return self.wait(timeout).unwrap()


@runtime_checkable
class Client(Protocol):
    """The submission surface both paths implement."""

    def connect(self) -> "Client": ...

    def submit(self, reactor: str, proc: str, *args: Any,
               read_only: bool | None = None,
               on_done: Callable[[Outcome], None] | None = None
               ) -> Submission: ...

    def submit_many(self, specs: Iterable[Spec],
                    read_only: bool | None = None
                    ) -> list[Submission]: ...

    def close(self) -> None: ...


__all__ = ["Client", "Outcome", "Spec", "Submission"]
