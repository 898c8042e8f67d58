"""The embedded path: a Client wrapping ``db.submit`` directly.

Zero overhead by construction — :meth:`LocalClient.submit` is one
attribute hop in front of :meth:`ReactorDatabase.submit`.  The
database itself (scheduler, costs, inspection surfaces) stays
reachable as ``client.database``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.client.base import Outcome, Spec, Submission
from repro.core.database import ReactorDatabase


class LocalClient:
    """In-process client: the zero-overhead embedded path."""

    __slots__ = ("database",)

    def __init__(self, database: ReactorDatabase) -> None:
        self.database = database

    # -- Client protocol ------------------------------------------------

    def connect(self) -> "LocalClient":
        """No wire to open; returns self for parity with TcpClient."""
        return self

    def submit(self, reactor: str, proc: str, *args: Any,
               read_only: bool | None = None,
               on_done: Callable[[Outcome], None] | None = None,
               **kwargs: Any) -> Submission:
        """Submit one root transaction; resolves when the scheduler
        drives it to completion (:meth:`drain`, or any ``run()``)."""
        submission = Submission()

        def _done(root: Any, committed: bool, reason: str | None,
                  result: Any) -> None:
            submission.resolve(Outcome(committed, reason=reason,
                                       result=result))

        if on_done is not None:
            submission.add_done_callback(on_done)
        self.database.submit(reactor, proc, *args,
                             read_only=read_only, on_done=_done,
                             **kwargs)
        return submission

    def submit_many(self, specs: Iterable[Spec],
                    read_only: bool | None = None
                    ) -> list[Submission]:
        return [self.submit(reactor, proc, *args, read_only=read_only)
                for reactor, proc, args in specs]

    def close(self) -> None:
        """The client borrows the database; closing the client does
        not close the database (embedded callers own its lifecycle)."""

    # -- embedded conveniences ------------------------------------------

    def call(self, reactor: str, proc: str, *args: Any,
             **kwargs: Any) -> Any:
        """Synchronous one-shot: submit, drive to completion, unwrap
        (exactly :meth:`ReactorDatabase.run`)."""
        return self.database.run(reactor, proc, *args, **kwargs)

    def drain(self) -> None:
        """Drive the scheduler until every submission resolves."""
        self.database.scheduler.run()


__all__ = ["LocalClient"]
