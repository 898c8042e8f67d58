"""The asyncio TCP server fronting a :class:`ReactorDatabase`.

One :class:`ReactorServer` serves one database on either execution
backend.  Every connection is an :class:`asyncio.Protocol`: its
``data_received`` callback runs handshake -> decode -> submit inline on
the event-loop thread — no task, stream or future per connection.

* ``sim`` — the discrete-event scheduler has no thread of its own, so
  a submitted request schedules one *pump* callback (``call_soon``,
  guarded by a flag) that drives ``scheduler.run()`` to quiescence on
  the event-loop thread.  The pump runs after every connection
  readable in that loop iteration has decoded and submitted its whole
  burst, so requests that arrive coalesced (one TCP segment, several
  frames) genuinely overlap in virtual time — a burst behaves like a
  burst, not like a sequence of solo transactions.
* ``threads`` — the backend's own worker threads execute transactions;
  completions are queued on a deque and drained on the event loop, one
  ``call_soon_threadsafe`` per burst.  No pump, no polling.

Answers are written per *burst*, not per message: ``_Connection.send``
encodes a frame into the connection's outbox, and every event-loop
callback that can answer — ``data_received`` (refusals, ``hello_ok``),
the sim pump, the threads drain — ends by writing each answered
connection once (``ReactorServer._flush``), as does anything that
closes a connection, before it closes.  Between callbacks every outbox
is empty; per connection, bytes leave in the order they were sent.

Flow control: a peer that does not read its answers fills the
transport's write buffer; past its high-water mark the server stops
reading *that* connection until the buffer drains, so the bytes held
for it stay bounded and other connections are unaffected.

Admission control happens *at the wire*, and only there: the server
bounds its in-flight request count (``max_inflight``) and answers
excess load with a typed ``overloaded`` error carrying a
``retry_after_us`` hint instead of parking requests without bound.
Neither execution backend sheds, so this is the one shed surface a
client sees.  An *abort* is never a shed, whatever its message says.

Sessions are purely logical: a request carries a ``session`` id, the
response echoes it, and responses are written in *completion* order —
many sessions multiplex one connection and match answers by
``(session, id)``.

Telemetry: accepted/shed/in-flight counts and a wire-latency histogram
register on the database's catalog-checked metrics registry
(``serving_*``), and — under system tracing — every served request
emits a ``wait:wire`` span on the ``serving`` track covering its
submit-to-completion window.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from functools import partial
from typing import Any

from repro.core.database import ReactorDatabase
from repro.errors import UnknownProcedureError
from repro.serving import protocol
from repro.telemetry.spans import TRACK_SERVING

#: Default bound on requests admitted but not yet answered.
DEFAULT_MAX_INFLIGHT = 256

#: Base retry-after hint (microseconds) attached to sheds; the
#: actual hint scales with how far past the bound the server is.
RETRY_AFTER_US = 1_000.0


class _Connection(asyncio.Protocol):
    """One accepted socket: negotiated codec, decoder, sessions."""

    __slots__ = ("server", "transport", "codec", "decoder", "sessions",
                 "outbox")

    def __init__(self, server: "ReactorServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        #: ``None`` until the JSON hello exchange has picked one.
        self.codec: str | None = None
        self.decoder = protocol.FrameDecoder("json")
        self.sessions: set[int] = set()
        #: Encoded answers since the last flush point, in send order.
        self.outbox: list[bytes] = []

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        server = self.server
        server.connections.add(self)
        server._connections_total.inc()

    def connection_lost(self, exc: Exception | None) -> None:
        self.server.connections.discard(self)
        self.outbox.clear()  # nobody left to read them

    def pause_writing(self) -> None:
        self.transport.pause_reading()  # the peer is not reading

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def send(self, message: dict[str, Any]) -> None:
        """Encode now, write at the next flush point (see the module
        docstring): a burst of answers is one write — one
        ``send(2)``, one wake-up of the peer's reader — however many
        it holds.  Raises before anything is queued if the codec
        cannot carry ``message``."""
        if self.transport.is_closing():
            return
        frame = protocol.encode_frame(message, self.codec or "json")
        if not self.outbox:
            self.server._unflushed.append(self)
        self.outbox.append(frame)

    def close(self) -> None:
        """What was already answered goes out ahead of the FIN."""
        self.server._flush()
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        try:
            if self.codec is None:
                data = self._handshake(data)
            messages = self.decoder.feed(data)
        except protocol.WireProtocolError as err:
            self.send(protocol.hello_error(str(err))
                      if self.codec is None else protocol.error(
                          None, None, protocol.ERR_BAD_REQUEST, str(err)))
            self.close()
            return
        handle = self.server._handle_message
        for message in messages:
            if isinstance(message, dict) and \
                    message.get("type") == "goodbye":
                self.close()
                return
            handle(self, message)
        self.server._flush()

    def _handshake(self, data: bytes) -> bytes:
        """The JSON hello exchange: pick version and codec.  Returns
        the bytes the client pipelined behind its hello frame, which
        belong to the negotiated stream."""
        openers = self.decoder.feed(data, limit=1)
        if not openers:
            return b""
        opener = openers[0]
        if not isinstance(opener, dict) or \
                opener.get("type") != "hello":
            raise protocol.WireProtocolError(
                "expected a hello message first")
        version, codec = protocol.negotiate(
            opener.get("versions"), opener.get("codecs"))
        self.send(protocol.hello_ok(version, codec))
        self.codec = codec
        pipelined = self.decoder.take_buffered()
        self.decoder = protocol.FrameDecoder(codec)
        return pipelined


class ReactorServer:
    """Serve one database over asyncio TCP (see module docstring)."""

    def __init__(self, database: ReactorDatabase,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        self.database = database
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.inflight = 0
        #: (host, port) actually bound, known after :meth:`start`.
        self.address: tuple[str, int] | None = None
        #: Live connections (event-loop thread only).
        self.connections: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._is_sim = database.scheduler.is_virtual
        #: What a root's ``on_done`` calls, on whichever thread ran it.
        self._finish = self._complete if self._is_sim \
            else self._on_worker_done
        #: sim: is a ``_pump_once`` already scheduled?
        self._pump_scheduled = False
        #: threads: completions waiting for the event loop, and whether
        #: a ``_drain_completions`` wake-up is already on its way.
        self._completions: deque[tuple] = deque()
        self._drain_scheduled = False
        #: Connections with a non-empty outbox; empty between
        #: event-loop callbacks (see :meth:`_flush`).
        self._unflushed: list[_Connection] = []
        registry = database.telemetry.registry
        self._accepted = registry.counter("serving_accepted_total")
        self._shed = registry.counter("serving_shed_total")
        self._connections_total = registry.counter(
            "serving_connections_total")
        self._sessions = registry.counter("serving_sessions_total")
        registry.gauge_fn("serving_inflight", lambda: self.inflight)
        self._wire_hist = registry.histogram("serving_wire_latency_us")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        """Stop accepting and drop every live connection (unflushed
        answers with them: a peer that never reads must not be able to
        hold ``stop`` up)."""
        if self._server is not None:
            self._server.close()
            for conn in list(self.connections):
                conn.transport.abort()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Backend hand-offs
    # ------------------------------------------------------------------

    def _pump_once(self) -> None:
        """sim: drive the virtual-time scheduler to quiescence."""
        self._pump_scheduled = False
        self.database.scheduler.run()
        self._flush()

    def _on_worker_done(self, *completion: Any) -> None:
        """threads: runs on a container thread.  The flag is cleared
        before the drain starts, so a completion appended after it was
        last read sees it clear and schedules the next drain."""
        self._completions.append(completion)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            try:
                self._loop.call_soon_threadsafe(self._drain_completions)
            except RuntimeError:
                pass  # the loop closed under us: nobody left to tell

    def _drain_completions(self) -> None:
        self._drain_scheduled = False
        completions = self._completions
        while completions:
            self._complete(*completions.popleft())
        self._flush()

    def _flush(self) -> None:
        """Write every connection that was answered since the last
        flush point, once each, in the order it was first answered."""
        unflushed = self._unflushed
        for conn in unflushed:
            conn.transport.write(b"".join(conn.outbox))
            conn.outbox.clear()
        unflushed.clear()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _handle_message(self, conn: _Connection,
                        message: Any) -> None:
        problem = protocol.validate_request(message)
        if problem is not None:
            rid = message.get("id") if isinstance(message, dict) \
                else None
            session = message.get("session") \
                if isinstance(message, dict) else None
            conn.send(protocol.error(rid, session,
                                     protocol.ERR_BAD_REQUEST, problem))
            return
        rid = message["id"]
        session = message["session"]
        if session not in conn.sessions:
            conn.sessions.add(session)
            self._sessions.inc()
        if self.inflight >= self.max_inflight:
            self._shed_request(conn, rid, session,
                               "admission bound reached: "
                               f"{self.inflight} requests in flight")
            return
        database = self.database
        if message["reactor"] not in database:
            conn.send(protocol.error(
                rid, session, protocol.ERR_UNKNOWN_REACTOR,
                f"no reactor named {message['reactor']!r}"))
            return
        loop = self._loop
        t_wire = loop.time()
        self.inflight += 1
        self._accepted.inc()
        t_submit = database.scheduler.now
        state = (conn, rid, session, t_wire, t_submit)
        try:
            database.submit(
                message["reactor"], message["proc"], *message["args"],
                read_only=message.get("read_only"),
                on_done=partial(self._finish, state))
        except Exception as err:  # noqa: BLE001 - fault barrier: one
            # bad request must not tear down the connection.
            self.inflight -= 1
            code = protocol.ERR_BAD_REQUEST if isinstance(
                err, UnknownProcedureError) else protocol.ERR_INTERNAL
            conn.send(protocol.error(rid, session, code, str(err)))
            return
        if self._is_sim and not self._pump_scheduled:
            self._pump_scheduled = True
            loop.call_soon(self._pump_once)

    def _shed_request(self, conn: _Connection, rid: int,
                      session: int, detail: str) -> None:
        self._shed.inc()
        hint = RETRY_AFTER_US * max(
            1.0, (self.inflight + 1) / max(1, self.max_inflight))
        conn.send(protocol.error(rid, session, protocol.ERR_OVERLOADED,
                                 detail, retry_after_us=hint))

    def _complete(self, state: tuple, root: Any, committed: bool,
                  reason: str | None, result: Any) -> None:
        conn, rid, session, t_wire, t_submit = state
        self.inflight -= 1
        database = self.database
        self._wire_hist.observe((self._loop.time() - t_wire) * 1e6)
        tracer = database.telemetry.tracer
        if tracer is not None and tracer.system:
            tracer.system_span(
                "wait:wire", TRACK_SERVING, root.txn_id, t_submit,
                database.scheduler.now,
                args={"session": session, "request": rid})
        try:
            conn.send(protocol.response(rid, session, committed,
                                        result=result, reason=reason))
        except protocol.WireProtocolError:
            # The procedure returned something the codec cannot carry;
            # the transaction still committed server-side.
            conn.send(protocol.response(
                rid, session, committed,
                result=None,
                reason=None if committed else reason))


# ----------------------------------------------------------------------
# Thread-hosted convenience (tests, benches, CI smoke)
# ----------------------------------------------------------------------

class ServerThread:
    """Run a :class:`ReactorServer` on a dedicated event-loop thread.

    The synchronous world (pytest, benchmark scripts, the CI smoke
    job) starts the server, reads ``host``/``port``, points a
    :class:`~repro.client.TcpClient` at it, and calls :meth:`stop`
    when done.  The hosted event loop owns the database while serving
    — don't drive the scheduler from another thread concurrently.
    """

    def __init__(self, database: ReactorDatabase, **kwargs: Any) -> None:
        self.server = ReactorServer(database, **kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serving", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serving thread failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.address

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed() and \
                self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()


def serve_in_thread(database: ReactorDatabase,
                    **kwargs: Any) -> ServerThread:
    """Start serving ``database`` on a background event-loop thread;
    returns the started :class:`ServerThread` (read ``host``/``port``,
    call ``stop()``)."""
    thread = ServerThread(database, **kwargs)
    thread.start()
    return thread


__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "RETRY_AFTER_US",
    "ReactorServer",
    "ServerThread",
    "serve_in_thread",
]
