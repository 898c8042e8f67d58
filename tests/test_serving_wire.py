"""The two ends of the wire under bursts, slow peers, threads and death.

What the blocking-socket ``TcpClient`` and the callback server (its
own selector loop) must keep doing — a coalesced burst
overlaps in virtual time, a peer that does not read is paused without
hurting others, concurrent submitters never interleave frames — and the
typed, bounded behaviour when either side goes away first.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.client import TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.serving import protocol, serve_in_thread
from repro.serving.server import ReactorServer
from repro.sim.scheduler import SimScheduler
from repro.telemetry.config import full_tracing
from repro.workloads import smallbank as sb

N_CUSTOMERS = 8
#: Every stop/close/wait below must come back well inside this.
BOUND_S = 5.0


def make_database(telemetry=None) -> ReactorDatabase:
    deployment = shared_nothing(
        2, mpl=4, cc_scheme="occ",
        placement=RangePlacement(N_CUSTOMERS // 2))
    if telemetry is not None:
        deployment.telemetry = telemetry
    database = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(database, N_CUSTOMERS)
    return database


@pytest.fixture
def served():
    database = make_database()
    server = serve_in_thread(database)
    yield server
    server.stop()
    database.close()


def raw_connection(server, rcvbuf: int | None = None) -> socket.socket:
    """A hand-driven peer, hello exchange done."""
    sock = socket.socket()
    if rcvbuf is not None:  # must precede connect to bound the window
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(BOUND_S)
    sock.connect((server.host, server.port))
    sock.sendall(protocol.encode_frame(protocol.hello(codecs=("json",))))
    assert recv_messages(sock, 1)[0]["type"] == "hello_ok"
    return sock


def recv_messages(sock: socket.socket, count: int) -> list[dict]:
    decoder = protocol.FrameDecoder("json")
    messages: list[dict] = []
    while len(messages) < count:
        data = sock.recv(65536)
        assert data, "server closed the connection"
        messages.extend(decoder.feed(data))
    return messages


def record_inflight_at_run(monkeypatch, server) -> list[int]:
    """The server's in-flight count at every ``SimScheduler.run``,
    appended as the runs happen."""
    inflight_at_run: list[int] = []
    run = SimScheduler.run

    def counting_run(scheduler, *args, **kwargs):
        inflight_at_run.append(server.server.inflight)
        return run(scheduler, *args, **kwargs)

    monkeypatch.setattr(SimScheduler, "run", counting_run)
    return inflight_at_run


def elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Behaviours the callback server keeps
# ----------------------------------------------------------------------

def test_coalesced_burst_is_submitted_whole_before_the_pump(monkeypatch):
    """N frames in one segment: one scheduler drain covers all of them
    and their wire spans share a start and overlap in virtual time."""
    n = 8
    database = make_database(telemetry=full_tracing())
    server = serve_in_thread(database)
    inflight_at_run = record_inflight_at_run(monkeypatch, server)
    try:
        with raw_connection(server) as sock:
            sock.sendall(b"".join(
                protocol.encode_frame(protocol.request(
                    i, 0, sb.reactor_name(i), "deposit_checking", (1.0,)))
                for i in range(n)))
            answers = recv_messages(sock, n)
    finally:
        server.stop()
    assert all(a["type"] == "response" and a["committed"]
               for a in answers), answers
    assert [count for count in inflight_at_run if count] == [n]
    spans = [s for s in database.telemetry.tracer.spans
             if s.name == "wait:wire"]
    assert len(spans) == n
    assert len({s.start for s in spans}) == 1
    assert max(s.start for s in spans) < min(s.end for s in spans)
    database.close()


class SocketSpy:
    """A socket that remembers what ``sendall`` was given."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sends: list[bytes] = []

    def sendall(self, data: bytes) -> None:
        self.sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def test_submit_many_is_one_burst(monkeypatch):
    """``submit_many`` is one ``sendall`` of contiguous ids, so the sim
    server sees the whole list before its pump runs — once."""
    n = 12
    database = make_database()
    server = serve_in_thread(database)
    inflight_at_run = record_inflight_at_run(monkeypatch, server)
    client = TcpClient(server.host, server.port).connect()
    spy = SocketSpy(client._sock)
    monkeypatch.setattr(client, "_sock", spy)
    try:
        session = client.session()
        submissions = session.submit_many(
            [(sb.reactor_name(i % N_CUSTOMERS), "deposit_checking",
              (1.0,)) for i in range(n)])
        outcomes = [s.wait(BOUND_S) for s in submissions]
    finally:
        monkeypatch.undo()
        client.close()
        server.stop()
        database.close()
    assert all(o.committed for o in outcomes), outcomes
    assert not client._pending
    assert len(spy.sends) == 1
    requests = protocol.FrameDecoder(client.codec).feed(spy.sends[0])
    first = requests[0]["id"]
    assert [r["id"] for r in requests] == list(range(first, first + n))
    assert {r["session"] for r in requests} == {session.session_id}
    assert [count for count in inflight_at_run if count] == [n]


def test_submit_many_withdraws_the_whole_burst_when_the_send_fails(
        served, monkeypatch):
    client = TcpClient(served.host, served.port).connect()

    class Broken(SocketSpy):
        def sendall(self, data: bytes) -> None:
            raise BrokenPipeError("peer went away")

    monkeypatch.setattr(client, "_sock", Broken(client._sock))
    try:
        with pytest.raises(ConnectionError, match="send failed"):
            client.submit_many(
                [(sb.reactor_name(i), "balance", ()) for i in range(4)])
        assert not client._pending
    finally:
        monkeypatch.undo()
        client.close()


def test_requests_pipelined_behind_the_hello_are_answered(served):
    """hello + N requests in one segment: none is lost to the hello
    decoder."""
    n = 5
    with socket.create_connection((served.host, served.port),
                                  timeout=BOUND_S) as sock:
        sock.sendall(
            protocol.encode_frame(protocol.hello(codecs=("json",)))
            + b"".join(protocol.encode_frame(protocol.request(
                i, 0, sb.reactor_name(i), "balance", ()))
                for i in range(n)))
        answers = recv_messages(sock, n + 1)
    assert answers[0]["type"] == "hello_ok"
    assert sorted(a["id"] for a in answers[1:]) == list(range(n))
    assert all(a["committed"] for a in answers[1:])


def test_slow_reader_is_paused_and_others_still_served(
        served, monkeypatch):
    """A peer that sends and never reads: the server stops reading it,
    holds a bounded number of answer bytes for it — written or waiting
    in its outbox — and keeps answering a second connection.  Every
    flush point leaves every outbox empty, and a lost connection's
    outbox stays that way."""
    leftovers = []
    flush = ReactorServer._flush

    def checked_flush(server):
        flush(server)
        leftovers.extend(conn for conn in server.connections
                         if conn.outbox)
        leftovers.extend(server._unflushed)

    monkeypatch.setattr(ReactorServer, "_flush", checked_flush)
    big = "x" * 4096  # echoed back in every unknown-reactor answer
    frame = protocol.encode_frame(protocol.request(1, 0, big, "p", ()))
    with raw_connection(served, rcvbuf=4096) as sock:
        sock.settimeout(0.5)
        sent = 0
        with pytest.raises(TimeoutError):  # the server stopped reading
            while sent < 64 * 1024 * 1024:
                sock.sendall(frame)
                sent += len(frame)
        (conn,) = served.server.connections
        assert not conn.transport.is_reading()
        assert conn.outbox == []
        held = conn.transport.get_write_buffer_size()
        assert 0 < held < 1024 * 1024 < sent
        client = TcpClient(served.host, served.port).connect()
        try:
            assert client.submit(sb.reactor_name(0), "balance") \
                .wait(BOUND_S).committed
        finally:
            client.close()
    deadline = time.monotonic() + BOUND_S
    while served.server.connections:  # until the loop saw both go
        assert time.monotonic() < deadline
        time.sleep(0.01)
    conn.send(protocol.error(1, 0, protocol.ERR_INTERNAL, "too late"))
    assert conn.outbox == [] and not served.server._unflushed
    assert leftovers == []


def test_concurrent_submitters_never_interleave_frames(served):
    """Four threads share one client: every submission gets its own
    answer, and callbacks run on the reader thread."""
    client = TcpClient(served.host, served.port).connect()
    n_threads, per_thread = 4, 40
    submitted: list[list] = [[] for __ in range(n_threads)]
    callback_threads = set()

    def worker(index: int) -> None:
        for i in range(per_thread):
            # Large enough for ``sendall`` to need several sends.
            name = f"nobody-{index}-{i}-" + "y" * 20_000
            submitted[index].append((name, client.submit(
                name, "p", on_done=lambda outcome: callback_threads.add(
                    threading.current_thread().name))))
            submitted[index].append((None, client.submit(
                sb.reactor_name(index), "balance", read_only=True)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        for name, submission in (s for subs in submitted for s in subs):
            outcome = submission.wait(BOUND_S)
            if name is None:
                assert outcome.committed, outcome.reason
            else:
                assert outcome.error_code == \
                    protocol.ERR_UNKNOWN_REACTOR
                assert name in outcome.reason
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert callback_threads == {"repro-tcp-client"}


def test_threads_completions_all_reach_the_loop_under_contention():
    """threads backend, more worker and submitter threads than cores,
    a short switch interval: the drain flag and its one wake-up byte
    per drain strand no completion — every submission resolves, the
    server ends with nothing in flight, and the money added is exactly
    the committed deposits'."""
    deployment = shared_nothing(
        4, mpl=4, cc_scheme="occ",
        placement=RangePlacement(N_CUSTOMERS // 4), backend="threads")
    database = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(database, N_CUSTOMERS)
    before = sb.total_money(database, N_CUSTOMERS)
    server = serve_in_thread(database, max_inflight=10_000)
    client = TcpClient(server.host, server.port).connect()
    n_threads, per_thread = 4, 150
    submitted: list[list] = [[] for __ in range(n_threads)]

    def worker(index: int) -> None:
        for i in range(per_thread):
            submitted[index].append(client.submit(
                sb.reactor_name((index + i) % N_CUSTOMERS),
                "deposit_checking", 1.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        outcomes = [s.wait(BOUND_S) for subs in submitted for s in subs]
    finally:
        sys.setswitchinterval(interval)
        client.close()
        server.stop()
    assert len(outcomes) == n_threads * per_thread
    assert all(o.error_code is None for o in outcomes), outcomes
    assert server.server.inflight == 0
    committed = sum(o.committed for o in outcomes)
    assert committed > 0
    assert sb.total_money(database, N_CUSTOMERS) == before + committed
    database.close()


# ----------------------------------------------------------------------
# Either side goes away first
# ----------------------------------------------------------------------

def settled(outcome) -> bool:
    return outcome.committed or outcome.error_code == "connection"


def test_server_stop_with_connected_clients_is_quiet_and_bounded(leaks):
    """``stop()`` drops live connections itself, idle or busy: no
    warning is logged and no thread reports an exception, and what a
    client had pending resolves as ``connection``."""
    database = make_database()
    server = serve_in_thread(database)
    idle = TcpClient(server.host, server.port).connect()
    busy = TcpClient(server.host, server.port).connect()
    assert idle.submit(sb.reactor_name(0), "balance") \
        .wait(BOUND_S).committed
    pending = busy.submit_many(
        [(sb.reactor_name(i % N_CUSTOMERS), "deposit_checking", (1.0,))
         for i in range(32)])
    assert elapsed(server.stop) < BOUND_S
    assert all(settled(s.wait(BOUND_S)) for s in pending)
    for client in (idle, busy):
        assert elapsed(client.close) < BOUND_S
    assert leaks() == []
    database.close()


def test_a_raising_handler_costs_its_own_connection_only(
        served, leaks, monkeypatch):
    """A bug past ``_handle_message``'s own fault barrier: the
    connection it came on is closed, unanswered, the exception reaches
    ``threading.excepthook`` once, and the loop keeps answering another
    connection."""
    handle = served.server._handle_message

    def buggy(conn, message):
        if message.get("reactor") == "boom":
            raise RuntimeError("handler bug")
        handle(conn, message)

    monkeypatch.setattr(served.server, "_handle_message", buggy)
    other = TcpClient(served.host, served.port).connect()
    try:
        with raw_connection(served) as sock:
            sock.sendall(protocol.encode_frame(
                protocol.request(1, 0, "boom", "p", ())))
            assert sock.recv(4096) == b""
        assert other.submit(sb.reactor_name(0), "balance") \
            .wait(BOUND_S).committed
    finally:
        other.close()
    assert [type(args.exc_value) for args in leaks.exceptions] == \
        [RuntimeError]
    assert leaks.exceptions[0].thread.name == "repro-serving"
    assert leaks.warnings == []


def test_submit_after_the_server_has_gone_is_typed_and_leaks_nothing():
    database = make_database()
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    assert client.submit(sb.reactor_name(0), "balance") \
        .wait(BOUND_S).committed
    server.stop()
    deadline = time.monotonic() + BOUND_S
    while True:  # until the reader thread has seen the connection end
        try:
            outcome = client.submit(sb.reactor_name(1), "balance") \
                .wait(BOUND_S)
        except ConnectionError:
            break
        assert outcome.error_code == "connection"
        assert time.monotonic() < deadline
    with pytest.raises(ConnectionError):
        client.call(sb.reactor_name(1), "balance")
    assert not client._pending  # refused submits are not remembered
    assert elapsed(client.close) < BOUND_S
    client.close()  # idempotent
    database.close()


def test_client_closes_first(served):
    client = TcpClient(served.host, served.port).connect()
    pending = client.submit_many(
        [(sb.reactor_name(i % N_CUSTOMERS), "deposit_checking", (1.0,))
         for i in range(32)])
    assert elapsed(client.close) < BOUND_S
    assert all(settled(s.wait(BOUND_S)) for s in pending)
    client.close()  # idempotent
    with pytest.raises(ConnectionError):
        client.submit(sb.reactor_name(0), "balance")
    assert not client._pending
    # The server outlives the client: a new connection is served.
    again = TcpClient(served.host, served.port).connect()
    try:
        assert again.submit(sb.reactor_name(0), "balance") \
            .wait(BOUND_S).committed
    finally:
        again.close()


def test_close_does_not_wait_for_a_silent_server():
    """A peer that shakes hands and then neither reads nor answers:
    ``close()`` wakes the blocked reader — and a submitter blocked on
    the full send buffer — itself."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def silent_server() -> None:
        peer, __ = listener.accept()
        accepted.append(peer)
        peer.recv(65536)  # the hello
        peer.sendall(protocol.encode_frame(
            protocol.hello_ok(protocol.PROTOCOL_VERSION, "json")))

    thread = threading.Thread(target=silent_server, daemon=True)
    thread.start()
    try:
        client = TcpClient(*listener.getsockname()[:2]).connect()
        submission = client.submit("anyone", "anything")
        with pytest.raises(TimeoutError):
            submission.wait(0.05)
        sent, refused = [], []

        def flood() -> None:
            try:
                while True:
                    sent.append(client.submit("x" * 1_000_000, "p"))
            except ConnectionError as error:
                refused.append(error)

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        progress = -1
        while progress != len(sent):  # until ``sendall`` stops moving
            progress = len(sent)
            time.sleep(0.2)
        assert elapsed(client.close) < BOUND_S
        flooder.join(timeout=BOUND_S)
        assert not flooder.is_alive() and refused
        assert all(s.wait(BOUND_S).error_code == "connection"
                   for s in (submission, *sent))
    finally:
        thread.join(timeout=BOUND_S)
        for sock in (*accepted, listener):
            sock.close()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_raising_callback_does_not_strand_the_rest_of_its_burst():
    """Two answers in one segment, the first one's ``on_done`` raises:
    the reader dies, and the second submission — already matched, no
    longer pending — still resolves, typed, instead of hanging."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def answer_both_at_once() -> None:
        peer, __ = listener.accept()
        accepted.append(peer)
        peer.recv(65536)  # the hello
        peer.sendall(protocol.encode_frame(
            protocol.hello_ok(protocol.PROTOCOL_VERSION, "json")))
        decoder = protocol.FrameDecoder("json")
        requests: list[dict] = []
        while len(requests) < 2:
            requests.extend(decoder.feed(peer.recv(65536)))
        peer.sendall(b"".join(
            protocol.encode_frame(protocol.response(
                r["id"], r["session"], True, result=r["id"]))
            for r in requests))

    thread = threading.Thread(target=answer_both_at_once, daemon=True)
    thread.start()

    def boom(outcome) -> None:
        raise RuntimeError("callback bug")

    try:
        client = TcpClient(*listener.getsockname()[:2]).connect()
        first = client.submit("anyone", "anything", on_done=boom)
        second = client.submit("anyone", "anything")
        assert first.wait(BOUND_S).committed
        outcome = second.wait(BOUND_S)
        assert outcome.error_code == "connection"
        assert outcome.reason == "client reader failed"
        assert not client._pending
        assert elapsed(client.close) < BOUND_S
    finally:
        thread.join(timeout=BOUND_S)
        for sock in (*accepted, listener):
            sock.close()

