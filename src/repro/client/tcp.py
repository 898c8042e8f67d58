"""The wire path: a synchronous Client speaking the serving protocol.

A :class:`TcpClient` owns one blocking TCP socket (``TCP_NODELAY``)
and one reader thread.  ``connect()`` runs the JSON hello exchange and
switches to the negotiated codec; ``submit()``, callable from any
thread, encodes and ``sendall``s the request there and then and returns
a :class:`Submission`; ``submit_many()`` does the same for a whole list
with one ``sendall``.  The reader thread does ``recv`` ->
``FrameDecoder.feed`` -> ``resolve`` as answers arrive — everything one
``recv`` returned is matched by ``(session, request id)`` under one
lock acquisition, then resolved in the server's completion order — so
``on_done`` callbacks run on it.  A full kernel send buffer blocks
``submit``: a callback that submits without bound can stall its reader.

A connection that fails or is closed, by either side, resolves every
pending submission with ``Outcome(error_code="connection")``, and
``submit()`` on it raises :class:`ConnectionError`.

Sessions are logical: :meth:`TcpClient.session` mints a new session id
multiplexed over the same connection; a session's requests carry its
id and nothing else distinguishes them on the wire.  A server shed
resolves the submission with an ``overloaded`` outcome whose
``retry_after_us`` carries the server's backoff hint —
``Submission.result()`` raises the typed
:class:`~repro.serving.protocol.Overloaded` for it.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from collections import deque
from typing import Any, Callable, Iterable

from repro.client.base import Outcome, Spec, Submission
from repro.serving import protocol


class TcpClient:
    """Client for a served database (see module docstring)."""

    def __init__(self, host: str, port: int,
                 codecs: tuple[str, ...] | None = None,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._offered = codecs or protocol.available_codecs()
        #: Negotiated after connect().
        self.codec: str | None = None
        self.protocol_version: int | None = None
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None
        #: Guards ``_pending``, ``_down`` and the id counters.  Never
        #: held across a socket call: the reader needs it, and unread
        #: answers are what blocks a ``sendall`` (see the server).
        self._lock = threading.Lock()
        #: Serializes ``sendall`` so frames never interleave.
        self._send_lock = threading.Lock()
        self._next_request = 0
        self._next_session = 1
        self._pending: dict[tuple[int, int], Submission] = {}
        #: Why submissions are refused (``None`` while connected).
        self._down: str | None = "client is not connected"

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------

    def connect(self) -> "TcpClient":
        if self._sock is not None:
            return self
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(protocol.encode_frame(
                protocol.hello(codecs=self._offered), "json"))
            hello_decoder = protocol.FrameDecoder("json")
            openers: list[Any] = []
            while not openers:
                data = sock.recv(65536)
                if not data:
                    raise ConnectionError(
                        "server closed during handshake")
                openers = hello_decoder.feed(data, limit=1)
            opener = openers[0]
            if opener.get("type") != "hello_ok":
                raise protocol.WireProtocolError(
                    f"negotiation failed: {opener.get('detail')}"
                    if opener.get("type") == "hello_error" else
                    f"expected hello_ok, got {opener.get('type')!r}")
            self.codec = opener["codec"]
            self.protocol_version = opener["version"]
            decoder = protocol.FrameDecoder(self.codec)
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._down = None
        # Any bytes behind the server's hello_ok already belong to the
        # negotiated stream.
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(sock, decoder, hello_decoder.take_buffered()),
            name="repro-tcp-client", daemon=True)
        self._reader.start()
        return self

    def submit(self, reactor: str, proc: str, *args: Any,
               read_only: bool | None = None,
               on_done: Callable[[Outcome], None] | None = None,
               session: int = 0) -> Submission:
        submission = Submission()
        if on_done is not None:
            submission.add_done_callback(on_done)
        with self._lock:
            if self._down is not None:
                raise ConnectionError(self._down)
            self._next_request += 1
            key = (session, self._next_request)
            frame = protocol.encode_frame(
                protocol.request(key[1], session, reactor, proc,
                                 tuple(args), read_only=read_only),
                self.codec)
            self._pending[key] = submission
        self._send(frame, (key,))
        return submission

    def submit_many(self, specs: Iterable[Spec],
                    read_only: bool | None = None,
                    session: int = 0) -> list[Submission]:
        """One burst: contiguous request ids, one ``sendall``.  Nothing
        is registered unless every spec encodes."""
        with self._lock:
            if self._down is not None:
                raise ConnectionError(self._down)
            first = self._next_request + 1
            frames = [
                protocol.encode_frame(
                    protocol.request(rid, session, reactor, proc,
                                     tuple(args), read_only=read_only),
                    self.codec)
                for rid, (reactor, proc, args) in enumerate(specs, first)]
            self._next_request += len(frames)
            keys = [(session, rid)
                    for rid in range(first, first + len(frames))]
            submissions = [Submission() for __ in keys]
            self._pending.update(zip(keys, submissions))
        self._send(b"".join(frames), keys)
        return submissions

    def _send(self, data: bytes, keys: Iterable[tuple[int, int]]
              ) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as error:
            # Withdraw the entries — unless the reader saw the
            # connection die first and already resolved them as
            # ``connection`` (it takes all of ``_pending`` at once).
            with self._lock:
                withdrawn = [self._pending.pop(key, None)
                             for key in keys]
            if any(withdrawn):
                raise ConnectionError(f"send failed: {error}") from error

    def call(self, reactor: str, proc: str, *args: Any,
             read_only: bool | None = None, session: int = 0) -> Any:
        """Synchronous round trip: submit, wait, unwrap."""
        return self.submit(reactor, proc, *args, read_only=read_only,
                           session=session).result(self.timeout)

    def close(self) -> None:
        """Idempotent and bounded: ``shutdown`` wakes the reader and any
        blocked sender; pending submissions resolve as ``connection``."""
        with self._lock:
            reader, self._reader = self._reader, None
            if self._down is None:
                self._down = "client is closed"
        if reader is None:
            return
        sock = self._sock
        with contextlib.suppress(OSError):  # a courtesy, never waited for
            if self._send_lock.acquire(blocking=False):
                try:
                    sock.send(protocol.encode_frame(
                        protocol.goodbye(), self.codec),
                        socket.MSG_DONTWAIT)
                finally:
                    self._send_lock.release()
        with contextlib.suppress(OSError):  # the peer is already gone
            sock.shutdown(socket.SHUT_RDWR)
        reader.join(timeout=self.timeout)
        sock.close()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(self) -> "ClientSession":
        """A new logical session multiplexed over this connection."""
        with self._lock:
            session_id = self._next_session
            self._next_session += 1
        return ClientSession(self, session_id)

    # ------------------------------------------------------------------
    # The reader thread
    # ------------------------------------------------------------------

    def _read_loop(self, sock: socket.socket,
                   decoder: protocol.FrameDecoder, data: bytes) -> None:
        reason = "client reader failed"  # an on_done callback raised
        #: Taken out of ``_pending`` and not yet resolved.
        matched: deque[tuple[Submission | None, Outcome]] = deque()
        try:
            while True:
                # One receive burst: decode it whole, take the lock
                # once for all of it, then resolve in wire order.
                answers = list(filter(None, map(
                    _answer, decoder.feed(data))))
                with self._lock:
                    pop = self._pending.pop
                    matched.extend((pop(key, None), outcome)
                                   for key, outcome in answers)
                while matched:
                    submission, outcome = matched.popleft()
                    if submission is not None:
                        submission.resolve(outcome)
                data = sock.recv(65536)
                if not data:
                    decoder.check_eof()
                    reason = "connection closed by server"
                    break
        except (OSError, protocol.WireProtocolError) as error:
            reason = str(error)
        finally:
            with self._lock:
                reason = self._down = self._down or reason
                pending = [submission for submission, __ in matched
                           if submission is not None]
                pending.extend(self._pending.values())
                self._pending.clear()
            for submission in pending:
                submission.resolve(Outcome(False, reason=reason,
                                           error_code="connection"))


def _answer(message: Any) -> tuple[tuple[Any, Any], Outcome] | None:
    """A terminal answer as ``((session, id), outcome)``; ``None`` for
    anything else the server may say."""
    if not isinstance(message, dict):
        return None
    mtype = message.get("type")
    if mtype == "response":
        outcome = Outcome(bool(message.get("committed")),
                          reason=message.get("reason"),
                          result=message.get("result"))
    elif mtype == "error":
        outcome = Outcome(
            False, reason=message.get("detail"),
            error_code=message.get("code"),
            retry_after_us=float(message.get("retry_after_us") or 0.0))
    else:
        return None
    return (message.get("session"), message.get("id")), outcome


class ClientSession:
    """One logical session: the same client, a fixed session id."""

    __slots__ = ("client", "session_id")

    def __init__(self, client: TcpClient, session_id: int) -> None:
        self.client = client
        self.session_id = session_id

    def submit(self, reactor: str, proc: str, *args: Any,
               read_only: bool | None = None,
               on_done: Callable[[Outcome], None] | None = None
               ) -> Submission:
        return self.client.submit(reactor, proc, *args,
                                  read_only=read_only, on_done=on_done,
                                  session=self.session_id)

    def submit_many(self, specs: Iterable[Spec],
                    read_only: bool | None = None) -> list[Submission]:
        return self.client.submit_many(specs, read_only=read_only,
                                       session=self.session_id)

    def call(self, reactor: str, proc: str, *args: Any,
             read_only: bool | None = None) -> Any:
        return self.client.call(reactor, proc, *args,
                                read_only=read_only,
                                session=self.session_id)


__all__ = ["ClientSession", "TcpClient"]
