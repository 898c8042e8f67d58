"""The TCP server fronting a :class:`ReactorDatabase`, on a loop it owns.

One :class:`ReactorServer` serves one database on either execution
backend from one thread, which runs the server's own event loop
(:class:`_Loop`): a ``selectors.DefaultSelector``, a socketpair that
wakes it from other threads, and a ready list of callbacks.  Every
connection is a :class:`_Connection` over a non-blocking
:class:`_SocketTransport`; its ``data_received`` callback runs
handshake -> decode -> submit inline on the loop thread — no task,
stream or future per connection.  One loop iteration is one
``select()`` (it blocks unless a callback is ready), one read of at
most :data:`READ_SIZE` bytes from each readable connection, then the
callbacks those reads queued.

* ``sim`` — the discrete-event scheduler has no thread of its own, so
  a submitted request queues one *pump* callback (``call_soon``,
  guarded by a flag) that drives ``scheduler.run()`` to quiescence on
  the loop thread.  The pump runs after every connection readable in
  that ``select()`` has decoded and submitted its whole burst, so
  requests that arrive coalesced (one TCP segment, several frames)
  genuinely overlap in virtual time — a burst behaves like a burst,
  not like a sequence of solo transactions.
* ``threads`` — the backend's own worker threads execute transactions;
  completions are queued on a deque and drained on the loop, one
  ``call_soon_threadsafe`` — one wake-up byte — per burst.  No pump,
  no polling.

Answers are written per *burst*, not per message: ``_Connection.send``
encodes a frame into the connection's outbox, and every loop callback
that can answer — ``data_received`` (refusals, ``hello_ok``), the sim
pump, the threads drain — ends by writing each answered connection
once (``ReactorServer._flush``), as does anything that closes a
connection, before it closes.  Between callbacks every outbox is
empty; per connection, bytes leave in the order they were sent.

Flow control: a transport's ``write`` sends what the kernel takes at
once and buffers only the rest.  A peer that does not read its answers
fills that buffer; past :data:`HIGH_WATER` bytes the server stops
reading *that* connection until the buffer drains to
:data:`LOW_WATER`, so the bytes held for it stay bounded and other
connections are unaffected.

Faults: an exception out of a connection's ``data_received`` aborts
that connection only; one out of any loop callback is handed to
``threading.excepthook`` (a traceback on stderr by default), and the
loop keeps serving either way.  A peer's EOF or reset ends its
connection with one ``connection_lost``; a failed ``accept`` is
skipped.

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

import selectors
import socket
import threading
from collections import deque
from functools import partial
from time import monotonic
from typing import Any, Callable

from repro.core.database import ReactorDatabase
from repro.errors import UnknownProcedureError
from repro.serving import protocol
from repro.telemetry.spans import TRACK_SERVING

#: Default bound on requests admitted but not yet answered.
DEFAULT_MAX_INFLIGHT = 256

#: Base retry-after hint (microseconds) attached to sheds; the
#: actual hint scales with how far past the bound the server is.
RETRY_AFTER_US = 1_000.0

#: Most bytes one read takes from a readable connection.
READ_SIZE = 256 * 1024
#: A connection stops being read while more than ``HIGH_WATER`` answer
#: bytes wait for its peer, and is read again at ``LOW_WATER``.
HIGH_WATER = 64 * 1024
LOW_WATER = 16 * 1024

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


def _report(error: BaseException) -> None:
    """Hand an exception nobody called for to the thread's own
    uncaught-exception hook, without ending the loop."""
    threading.excepthook(threading.ExceptHookArgs(
        (type(error), error, error.__traceback__,
         threading.current_thread())))


class _Loop:
    """One thread's event loop: a selector whose keys carry their
    handler, a ready list of callbacks, and a socketpair that wakes
    ``select`` from other threads.  Only the loop thread touches the
    selector; ``call_soon_threadsafe`` is how other threads get in."""

    __slots__ = ("selector", "_ready", "_wake_in", "_wake_out",
                 "_stopping")

    time = staticmethod(monotonic)

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self._ready: deque[tuple[Callable, tuple]] = deque()
        self._wake_in, self._wake_out = socket.socketpair()
        self._wake_in.setblocking(False)
        self._wake_out.setblocking(False)
        self.selector.register(self._wake_in, _READ, self._woken)
        self._stopping = False

    def call_soon(self, fn: Callable, *args: Any) -> None:
        self._ready.append((fn, args))

    def call_soon_threadsafe(self, fn: Callable, *args: Any) -> None:
        """Queue first, then wake: a ``select`` that began before the
        append returns on the byte."""
        self._ready.append((fn, args))
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # a full pipe is a wake-up already; a closed one, no loop

    def _woken(self, mask: int) -> None:
        try:
            self._wake_in.recv(4096)
        except OSError:
            pass

    def stop(self) -> None:
        self._stopping = True

    def run(self) -> None:
        """Serve until :meth:`stop`; then run what stopping queued (the
        ``connection_lost`` calls) and close."""
        select = self.selector.select
        ready = self._ready
        try:
            while not self._stopping:
                for key, mask in select(0 if ready else None):
                    try:
                        key.data(mask)
                    except Exception as error:  # noqa: BLE001
                        _report(error)
                self._run_ready()
            self._run_ready()
        finally:
            self.selector.close()
            self._wake_in.close()
            self._wake_out.close()

    def _run_ready(self) -> None:
        """What is queued now, not what that queues: a callback queued
        from here waits for the next ``select``."""
        ready = self._ready
        for __ in range(len(ready)):
            fn, args = ready.popleft()
            try:
                fn(*args)
            except Exception as error:  # noqa: BLE001 - fault barrier
                _report(error)


class _SocketTransport:
    """One accepted non-blocking socket under a :class:`_Loop`: the
    calls a :class:`_Connection` makes on it, and the callbacks it
    makes on the connection (see the module docstring)."""

    __slots__ = ("_loop", "_sock", "_protocol", "_buffer", "_events",
                 "_reading", "_closing", "_writing_paused")

    def __init__(self, loop: _Loop, sock: socket.socket,
                 protocol_: "_Connection") -> None:
        self._loop = loop
        self._sock: socket.socket | None = sock
        self._protocol = protocol_
        #: What the kernel has not taken yet, in write order.
        self._buffer = bytearray()
        #: The selector events registered for ``sock`` (0: none).
        self._events = 0
        self._reading = True
        self._closing = False
        self._writing_paused = False
        self._set_events(_READ)

    def _set_events(self, events: int) -> None:
        old = self._events
        if events == old:
            return
        selector = self._loop.selector
        if not old:
            selector.register(self._sock, events, self._on_events)
        elif not events:
            selector.unregister(self._sock)
        else:
            selector.modify(self._sock, events, self._on_events)
        self._events = events

    def _on_events(self, mask: int) -> None:
        if mask & _WRITE and self._buffer:
            self._write_ready()
        if mask & _READ and self._reading:
            self._read_ready()

    def _read_ready(self) -> None:
        try:
            data = self._sock.recv(READ_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:  # ECONNRESET and kin
            self._finish(error)
            return
        if not data:  # EOF: what is already buffered still goes out
            self.close()
            return
        try:
            self._protocol.data_received(data)
        except Exception as error:  # noqa: BLE001 - a fatal protocol
            # error costs its own connection, not the loop.
            self._finish(error)
            _report(error)

    def _write_ready(self) -> None:
        buffer = self._buffer
        try:
            sent = self._sock.send(buffer)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self._finish(error)
            return
        del buffer[:sent]
        if self._writing_paused and len(buffer) <= LOW_WATER:
            self._writing_paused = False
            self._protocol.resume_writing()
        if not buffer:
            if self._closing:
                self._finish(None)
            else:
                self._set_events(self._events & ~_WRITE)

    def write(self, data: bytes) -> None:
        """Send now; buffer only what the kernel did not take."""
        if not data or self._sock is None:
            return
        if not self._buffer:
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as error:
                self._finish(error)
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
            self._set_events(self._events | _WRITE)
        self._buffer += data
        if not self._writing_paused and len(self._buffer) > HIGH_WATER:
            self._writing_paused = True
            self._protocol.pause_writing()

    def get_write_buffer_size(self) -> int:
        return len(self._buffer)

    def pause_reading(self) -> None:
        if self._reading:
            self._reading = False
            self._set_events(self._events & ~_READ)

    def resume_reading(self) -> None:
        if not self._reading and not self._closing:
            self._reading = True
            self._set_events(self._events | _READ)

    def is_reading(self) -> bool:
        return self._reading

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        """Stop reading; the FIN follows the last buffered byte."""
        if self._closing:
            return
        self._closing = True
        self.pause_reading()
        if not self._buffer:
            self._finish(None)

    def abort(self) -> None:
        """Close now, dropping whatever was not sent."""
        self._finish(None)

    def _finish(self, error: Exception | None) -> None:
        """Release the socket and queue the one ``connection_lost``."""
        sock = self._sock
        if sock is None:
            return
        self._sock = None
        self._closing = True
        self._reading = False
        self._buffer.clear()
        if self._events:
            self._loop.selector.unregister(sock)
            self._events = 0
        sock.close()
        self._loop.call_soon(self._protocol.connection_lost, error)


class _Connection:
    """One accepted socket: negotiated codec, decoder, sessions.  Its
    transport calls ``data_received``, ``pause_writing``,
    ``resume_writing`` and ``connection_lost``."""

    __slots__ = ("server", "transport", "codec", "decoder", "sessions",
                 "outbox")

    def __init__(self, server: "ReactorServer") -> None:
        self.server = server
        self.transport: _SocketTransport | None = None
        #: ``None`` until the JSON hello exchange has picked one.
        self.codec: str | None = None
        self.decoder = protocol.FrameDecoder("json")
        self.sessions: set[int] = set()
        #: Encoded answers since the last flush point, in send order.
        self.outbox: list[bytes] = []

    def connection_made(self, transport: _SocketTransport) -> None:
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
    """Serve one database over TCP (see module docstring)."""

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
        #: Live connections (loop thread only).
        self.connections: set[_Connection] = set()
        self._listener: socket.socket | None = None
        self._loop: _Loop | None = None
        self._is_sim = database.scheduler.is_virtual
        #: What a root's ``on_done`` calls, on whichever thread ran it.
        self._finish = self._complete if self._is_sim \
            else self._on_worker_done
        #: sim: is a ``_pump_once`` already scheduled?
        self._pump_scheduled = False
        #: threads: completions waiting for the loop, and whether a
        #: ``_drain_completions`` wake-up is already on its way.
        self._completions: deque[tuple] = deque()
        self._drain_scheduled = False
        #: Connections with a non-empty outbox; empty between loop
        #: callbacks (see :meth:`_flush`).
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

    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound address.  :meth:`run`
        serves."""
        listener = socket.create_server((self.host, self.port),
                                        backlog=100)
        listener.setblocking(False)
        self._listener = listener
        self._loop = _Loop()
        self._loop.selector.register(listener, _READ, self._accept)
        sockname = listener.getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    def run(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._loop.run()

    def stop(self) -> None:
        """From any thread: end :meth:`run` (see :meth:`_shut_down`)."""
        self._loop.call_soon_threadsafe(self._shut_down)

    def _shut_down(self) -> None:
        """Stop accepting and drop every live connection (unflushed
        answers with them: a peer that never reads must not be able to
        hold ``stop`` up)."""
        listener = self._listener
        if listener is not None:
            self._listener = None
            self._loop.selector.unregister(listener)
            listener.close()
            for conn in list(self.connections):
                conn.transport.abort()
        self._loop.stop()

    def _accept(self, mask: int) -> None:
        try:
            sock, __ = self._listener.accept()
        except OSError:  # EAGAIN, ECONNABORTED, EMFILE ...: skip it
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(self)
        conn.connection_made(_SocketTransport(self._loop, sock, conn))

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
            self._loop.call_soon_threadsafe(self._drain_completions)

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
        self._accepted.value += 1
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
    """Run a :class:`ReactorServer` on a dedicated loop thread.

    The synchronous world (pytest, benchmark scripts, the CI smoke
    job) starts the server, reads ``host``/``port``, points a
    :class:`~repro.client.TcpClient` at it, and calls :meth:`stop`
    when done.  The loop thread owns the database while serving —
    don't drive the scheduler from another thread concurrently.
    """

    def __init__(self, database: ReactorDatabase, **kwargs: Any) -> None:
        self.server = ReactorServer(database, **kwargs)
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Bind here (a bind error raises here), serve on the thread."""
        address = self.server.start()
        self._thread = threading.Thread(
            target=self.server.run, name="repro-serving", daemon=True)
        self._thread.start()
        return address

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self) -> None:
        if self._thread is not None:
            self.server.stop()
            self._thread.join(timeout=30.0)


def serve_in_thread(database: ReactorDatabase,
                    **kwargs: Any) -> ServerThread:
    """Start serving ``database`` on a background loop thread; returns
    the started :class:`ServerThread` (read ``host``/``port``, call
    ``stop()``)."""
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
