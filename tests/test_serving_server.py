"""The served path end to end: server, TcpClient, equivalence.

The headline property (ISSUE 10 acceptance): the same seeded workload
submitted through a ``LocalClient`` (embedded) and a ``TcpClient``
(served over real TCP) commits to identical state, and ``certify_all``
passes on both paths — the wire boundary changes *where* transactions
originate, not what they do.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.client import LocalClient, TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.formal.audit import attach_recorder, certify_all
from repro.serving import protocol, serve_in_thread
from repro.serving.protocol import Overloaded
from repro.workloads import smallbank as sb

N_CUSTOMERS = 8
N_CONTAINERS = 2
MAX_RETRIES = 50

#: Every codec this process can speak is a tested path: JSON always,
#: msgpack wherever it is installed (the CI serving-smoke msgpack leg).
each_codec = pytest.mark.parametrize(
    "codec", protocol.available_codecs())


def make_database(backend: str = "sim") -> ReactorDatabase:
    deployment = shared_nothing(
        N_CONTAINERS, mpl=4, cc_scheme="occ",
        placement=RangePlacement(N_CUSTOMERS // N_CONTAINERS),
        backend=backend)
    database = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(database, N_CUSTOMERS)
    return database


def seeded_ops() -> list[tuple[str, str, tuple]]:
    """A deterministic op list with order-independent final state:
    commutative per-account sums plus cross-container transfers."""
    ops = []
    for i in range(40):
        cust = sb.reactor_name(i % N_CUSTOMERS)
        if i % 3 == 0:
            ops.append((cust, "transact_saving", (10.0 + i,)))
        elif i % 3 == 1:
            ops.append((cust, "deposit_checking", (5.0 + i,)))
        else:
            other = sb.reactor_name((i + 3) % N_CUSTOMERS)
            ops.append(sb.multi_transfer_spec(
                "fully-async", cust, [other], 2.0))
    return ops


def run_to_commit(client, ops):
    """Drive every op to a committed conclusion through a Client,
    resubmitting on abort (and on shed) — same contract as the
    backend-equivalence suite, expressed against the Client surface."""
    done = []

    def submit(op, tries=MAX_RETRIES):
        def on_done(outcome):
            if outcome.committed:
                done.append(op)
                return
            assert tries > 0, \
                f"op {op} failed too often: {outcome.reason}"
            submit(op, tries - 1)
        reactor, proc, args = op
        client.submit(reactor, proc, *args, on_done=on_done)

    for op in ops:
        submit(op)
    if hasattr(client, "drain"):
        client.drain()
    else:
        deadline_ops = len(ops)
        import time
        for _ in range(2000):
            if len(done) >= deadline_ops:
                break
            time.sleep(0.005)
    assert len(done) == len(ops)


def committed_state(database):
    return {
        name: {
            table: sorted(
                (tuple(sorted(row.items()))
                 for row in database.table_rows(name, table)))
            for table in ("savings", "checking")
        }
        for name in database.reactor_names()
    }


@each_codec
def test_local_vs_served_equivalence(codec):
    """Same seeded ops, embedded vs over-the-wire: identical committed
    state, certify_all green on both."""
    ops = seeded_ops()

    local_db = make_database()
    attach_recorder(local_db)
    run_to_commit(LocalClient(local_db), ops)
    local_state = committed_state(local_db)
    local_cert = certify_all(local_db)
    local_total = sb.total_money(local_db, N_CUSTOMERS)
    local_db.close()

    served_db = make_database()
    attach_recorder(served_db)
    server = serve_in_thread(served_db)
    client = TcpClient(server.host, server.port,
                       codecs=(codec,)).connect()
    assert client.codec == codec
    run_to_commit(client, ops)
    client.close()
    server.stop()
    served_state = committed_state(served_db)
    served_cert = certify_all(served_db)
    served_total = sb.total_money(served_db, N_CUSTOMERS)
    served_db.close()

    assert local_cert["ok"], local_cert["failures"]
    assert served_cert["ok"], served_cert["failures"]
    assert served_total == pytest.approx(local_total)
    assert served_state == local_state


@each_codec
def test_served_threads_backend_smoke(codec):
    """The server fronts the wall-clock threads backend natively (no
    pump): a round trip commits and is visible."""
    database = make_database(backend="threads")
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port,
                       codecs=(codec,)).connect()
    try:
        sub = client.submit(sb.reactor_name(0), "deposit_checking",
                            7.5)
        assert sub.wait(10.0).committed
    finally:
        client.close()
        server.stop()
        database.close()


@each_codec
def test_session_multiplexing_out_of_order(codec):
    """Many logical sessions share one connection; responses match by
    (session, id) even when submitted interleaved."""
    database = make_database()
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port,
                       codecs=(codec,)).connect()
    try:
        sessions = [client.session() for _ in range(4)]
        subs = []
        for i in range(24):
            session = sessions[i % 4]
            subs.append((i, session.submit(
                sb.reactor_name(i % N_CUSTOMERS), "deposit_checking",
                float(i))))
        for i, sub in subs:
            outcome = sub.wait(10.0)
            assert outcome.committed, (i, outcome.reason)
    finally:
        client.close()
        server.stop()
        database.close()


@each_codec
def test_overload_shed_is_typed_with_retry_hint(codec):
    """Past the admission bound, requests are refused with a typed
    overloaded error carrying a positive retry-after hint — and the
    admitted ones still commit."""
    database = make_database()
    server = serve_in_thread(database, max_inflight=4)
    client = TcpClient(server.host, server.port,
                       codecs=(codec,)).connect()
    try:
        subs = client.submit_many(
            [(sb.reactor_name(i % N_CUSTOMERS), "transact_saving",
              (1.0,)) for i in range(48)])
        outcomes = [s.wait(10.0) for s in subs]
        shed = [o for o in outcomes if o.shed]
        committed = [o for o in outcomes if o.committed]
        assert committed, "nothing was admitted"
        assert shed, "a 48-burst against max_inflight=4 must shed"
        assert all(o.retry_after_us > 0 for o in shed)
        with pytest.raises(Overloaded):
            shed[0].unwrap()
    finally:
        client.close()
        server.stop()
        database.close()


@each_codec
@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_unloaded_server_sheds_nothing(codec, backend):
    """One request at a time under the default admission bound: each
    first answer commits (``run_to_commit`` would retry a shed) and
    the in-flight count is back to zero after it."""
    database = make_database(backend=backend)
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port,
                       codecs=(codec,)).connect()
    try:
        for i in range(50):
            outcome = client.submit(
                sb.reactor_name(i % N_CUSTOMERS), "deposit_checking",
                1.0).wait(10.0)
            assert outcome.committed, \
                (i, outcome.error_code, outcome.reason)
            assert server.server.inflight == 0, i
    finally:
        client.close()
        server.stop()
        database.close()


GRUMBLER = ReactorType("Grumbler", lambda: [])


@GRUMBLER.procedure
def grumble(ctx):
    ctx.abort("downstream backpressure, try later")


def test_abort_message_is_never_read_as_a_shed():
    """A transaction that aborts is answered as an abort — with its
    reason, uncounted as a shed — whatever words the reason contains:
    telling a client to retry a deterministic abort is a wrong answer."""
    database = ReactorDatabase(shared_nothing(1), [("g", GRUMBLER)])
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    try:
        outcome = client.submit("g", "grumble").wait(10.0)
    finally:
        client.close()
        server.stop()
    assert not outcome.committed
    assert outcome.error_code is None and not outcome.shed
    assert outcome.reason == "downstream backpressure, try later"
    assert database.telemetry.registry.snapshot()[
        "serving_shed_total"] == 0
    database.close()


AWKWARD = ReactorType("Awkward", lambda: [])


@AWKWARD.procedure
def a_set(ctx):
    return {1, 2}


@AWKWARD.procedure
def a_tuple_keyed_dict(ctx):
    return {(1, 2): "x"}


@AWKWARD.procedure
def a_cycle(ctx):
    loop = []
    loop.append(loop)
    return loop


@AWKWARD.procedure
def fine(ctx):
    return [1, 2]


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_unencodable_result_is_answered_committed_without_it(
        backend, leaks):
    """A procedure that commits and returns what the codec cannot
    carry: every request of the burst is still answered — ``committed``
    with ``result=None`` — and nothing escapes into the server loop:
    no warning is logged and no thread reports an exception."""
    database = ReactorDatabase(shared_nothing(1, backend=backend),
                               [("a", AWKWARD)])
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port,
                       codecs=("json",)).connect()
    procs = ["fine", "a_set", "a_tuple_keyed_dict", "a_cycle", "fine"]
    try:
        outcomes = [s.wait(10.0) for s in client.submit_many(
            [("a", proc, ()) for proc in procs])]
    finally:
        client.close()
        server.stop()
        database.close()
    assert leaks() == []
    assert all(o.committed for o in outcomes), outcomes
    assert [o.result for o in outcomes] == \
        [[1, 2], None, None, None, [1, 2]]
    assert server.server.inflight == 0


def test_unencodable_args_are_refused_before_anything_is_pending():
    database = make_database()
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    try:
        with pytest.raises(protocol.WireProtocolError,
                           match="unencodable"):
            client.submit(sb.reactor_name(0), "deposit_checking",
                          {1.0})
        with pytest.raises(protocol.WireProtocolError,
                           match="unencodable"):
            client.submit_many([
                (sb.reactor_name(0), "deposit_checking", (1.0,)),
                (sb.reactor_name(1), "deposit_checking", ({1.0},))])
        assert not client._pending
        # The connection is as good as new.
        assert client.submit(sb.reactor_name(0), "balance") \
            .wait(10.0).committed
    finally:
        client.close()
        server.stop()
        database.close()


def test_serving_metrics_registered():
    """Accepted/shed counters and the inflight gauge appear in the
    telemetry snapshot after a served burst."""
    database = make_database()
    server = serve_in_thread(database, max_inflight=4)
    client = TcpClient(server.host, server.port).connect()
    try:
        subs = client.submit_many(
            [(sb.reactor_name(i % N_CUSTOMERS), "transact_saving",
              (1.0,)) for i in range(32)])
        for sub in subs:
            sub.wait(10.0)
    finally:
        client.close()
        server.stop()
    snapshot = database.telemetry.registry.snapshot()
    assert snapshot["serving_accepted_total"] > 0
    assert snapshot["serving_shed_total"] > 0
    assert snapshot["serving_connections_total"] >= 1
    assert snapshot["serving_inflight"] == 0  # all drained
    database.close()


# ----------------------------------------------------------------------
# Raw-socket behaviors a well-behaved TcpClient never triggers.
# ----------------------------------------------------------------------

def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "server closed the connection without answering"
        data += chunk
    return data


def _recv_frame(sock: socket.socket) -> dict:
    (length,) = struct.unpack(">I", _recv_exactly(sock, 4))
    return json.loads(_recv_exactly(sock, length))


def test_version_mismatch_answered_with_hello_error():
    database = make_database()
    server = serve_in_thread(database)
    try:
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            sock.sendall(protocol.encode_frame(
                {"type": "hello", "versions": [99],
                 "codecs": ["json"]}))
            answer = _recv_frame(sock)
            assert answer["type"] == "hello_error"
            assert "no common protocol version" in answer["detail"]
    finally:
        server.stop()
        database.close()


def test_malformed_request_answered_with_typed_error():
    database = make_database()
    server = serve_in_thread(database)
    try:
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            # These tests hand-frame JSON: offer only that codec, or a
            # server that also has msgpack would pick it.
            sock.sendall(protocol.encode_frame(
                protocol.hello(codecs=("json",))))
            assert _recv_frame(sock)["type"] == "hello_ok"
            sock.sendall(protocol.encode_frame(
                {"type": "request", "id": 1, "session": 0}))
            answer = _recv_frame(sock)
            assert answer["type"] == "error"
            assert answer["code"] == protocol.ERR_BAD_REQUEST
            assert "missing field" in answer["detail"]
    finally:
        server.stop()
        database.close()


def test_unknown_reactor_answered_with_typed_error():
    database = make_database()
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    try:
        outcome = client.submit("nobody", "nothing").wait(10.0)
        assert not outcome.committed
        assert outcome.error_code == protocol.ERR_UNKNOWN_REACTOR
    finally:
        client.close()
        server.stop()
        database.close()


def _answer_to_undecodable(payload: bytes) -> dict:
    """Handshake, send ``payload`` as one frame, return the server's
    answer — after which it must have closed the connection."""
    database = make_database()
    server = serve_in_thread(database)
    try:
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            # These tests hand-frame JSON: offer only that codec, or a
            # server that also has msgpack would pick it.
            sock.sendall(protocol.encode_frame(
                protocol.hello(codecs=("json",))))
            assert _recv_frame(sock)["type"] == "hello_ok"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            answer = _recv_frame(sock)
            # The server closes after a framing violation.
            assert sock.recv(4096) == b""
            return answer
    finally:
        server.stop()
        database.close()


def test_undecodable_frame_answered_then_closed():
    answer = _answer_to_undecodable(b"not json")
    assert answer["type"] == "error"
    assert answer["code"] == protocol.ERR_BAD_REQUEST


def test_deeply_nested_frame_answered_then_closed(leaks):
    """Nesting past the scanner's depth guard is one more undecodable
    frame — a typed answer and a clean close — not a ``RecursionError``
    for the server loop to report as a fatal protocol error."""
    answer = _answer_to_undecodable(b"[" * 100_000)
    assert answer["type"] == "error"
    assert answer["code"] == protocol.ERR_BAD_REQUEST
    assert "undecodable json payload" in answer["detail"]
    assert leaks() == []
