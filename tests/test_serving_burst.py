"""The wire path is burst-shaped: counts, not clocks.

``_Connection.data_received`` driven by hand over a fake transport and
a fake event loop — no socket, no thread of ours, no timing: a burst of
requests is one ``scheduler.run`` (sim) or one drain (threads) and one
``transport.write`` per flush point, answers leave in completion
order, and whatever was answered before a ``close`` is written before
it.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.serving import protocol
from repro.serving.server import ReactorServer, _Connection
from repro.workloads import smallbank as sb

N_CUSTOMERS = 16

#: The burst tests run under every codec this process has (the CI
#: serving-smoke msgpack leg included).
each_codec = pytest.mark.parametrize(
    "codec", protocol.available_codecs())


class FakeLoop:
    """``call_soon`` queues; the test decides when callbacks run."""

    def __init__(self) -> None:
        self.ready: list[tuple] = []

    def time(self) -> float:
        return 0.0

    def call_soon(self, fn, *args) -> None:
        self.ready.append((fn, args))

    call_soon_threadsafe = call_soon

    def run_ready(self) -> list[str]:
        """Run what is queued (not what that queues); return names."""
        ready, self.ready = self.ready, []
        for fn, args in ready:
            fn(*args)
        return [fn.__name__ for fn, __ in ready]


class FakeTransport:
    """Remembers, in order, every ``write`` and ``close``; like a
    real transport, an empty ``write`` is nothing."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    @property
    def writes(self) -> list[bytes]:
        return [data for kind, data in self.events if kind == "write"]

    def write(self, data: bytes) -> None:
        if data:
            self.events.append(("write", bytes(data)))

    def close(self) -> None:
        self.events.append(("close", None))

    def is_closing(self) -> bool:
        return ("close", None) in self.events


class Harness:
    """One server, one hand-driven connection past its hello."""

    def __init__(self, monkeypatch, backend: str, codec: str,
                 **server_kwargs) -> None:
        deployment = shared_nothing(
            2, mpl=4, cc_scheme="occ",
            placement=RangePlacement(N_CUSTOMERS // 2), backend=backend)
        self.database = ReactorDatabase(
            deployment, sb.declarations(N_CUSTOMERS))
        sb.load(self.database, N_CUSTOMERS)
        self.server = ReactorServer(self.database, **server_kwargs)
        self.loop = self.server._loop = FakeLoop()
        self.codec = codec
        self.conn = _Connection(self.server)
        self.transport = FakeTransport()
        self.conn.connection_made(self.transport)
        self.conn.data_received(protocol.encode_frame(
            protocol.hello(codecs=(codec,))))
        (hello_ok,) = self.take_answers("json")
        assert hello_ok == protocol.hello_ok(
            protocol.PROTOCOL_VERSION, codec)
        #: Request ids in the order the server completed them on its
        #: loop: ``_complete`` is what sim roots call back directly
        #: (as ``_finish``, bound at construction) and what the
        #: threads drain calls per queued completion.
        self.completed: list[int] = []
        hook = "_finish" if backend == "sim" else "_complete"
        complete = getattr(self.server, hook)

        def recording_complete(state, *outcome):
            self.completed.append(state[1])
            complete(state, *outcome)

        setattr(self.server, hook, recording_complete)
        #: ``scheduler.run`` calls (the class is slotted: patch it).
        self.runs = 0
        scheduler_class = type(self.database.scheduler)
        run = scheduler_class.run

        def counting_run(*args, **kwargs):
            self.runs += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(scheduler_class, "run", counting_run)

    def frames(self, messages: list) -> bytes:
        return b"".join(protocol.encode_frame(m, self.codec)
                        for m in messages)

    def take_answers(self, codec: str | None = None) -> list[dict]:
        """Decode and forget everything written so far; each write
        must hold whole frames only."""
        answers = []
        for data in self.transport.writes:
            decoder = protocol.FrameDecoder(codec or self.codec)
            answers.extend(decoder.feed(data))
            decoder.check_eof()
        self.transport.events = [
            e for e in self.transport.events if e[0] != "write"]
        return answers

    def close(self) -> None:
        self.database.close()


def deposit(rid: int) -> dict:
    return protocol.request(rid, 0, sb.reactor_name(rid % N_CUSTOMERS),
                            "deposit_checking", (1.0,))


@each_codec
def test_sim_burst_is_one_run_and_one_write(codec, monkeypatch):
    n = 16
    harness = Harness(monkeypatch, "sim", codec)
    try:
        harness.conn.data_received(
            harness.frames([deposit(rid) for rid in range(n)]))
        assert harness.transport.events == []  # nothing answered yet
        assert harness.server.inflight == n
        assert harness.loop.run_ready() == ["_pump_once"]
        assert harness.runs == 1
        assert len(harness.transport.writes) == 1
        answers = harness.take_answers()
        assert [a["id"] for a in answers] == harness.completed
        assert sorted(harness.completed) == list(range(n))
        assert all(a["type"] == "response" and a["committed"]
                   for a in answers), answers
        assert harness.server.inflight == 0
        assert harness.loop.ready == []
        assert harness.conn.outbox == [] and \
            not harness.server._unflushed
    finally:
        harness.close()


@each_codec
def test_mixed_burst_answers_everything_in_order(codec, monkeypatch):
    """Malformed, unknown reactor, admitted, shed — in one segment:
    the refusals leave at the end of ``data_received`` in arrival
    order, the admitted answers at the end of the pump."""
    harness = Harness(monkeypatch, "sim", codec, max_inflight=2)
    try:
        burst = [
            {"type": "request", "id": 100, "session": 0},  # malformed
            deposit(1),
            protocol.request(101, 0, "nobody", "p", ()),
            deposit(2),
            deposit(3),  # past max_inflight=2: shed
            deposit(4),  # shed
        ]
        harness.conn.data_received(harness.frames(burst))
        assert len(harness.transport.writes) == 1
        refusals = harness.take_answers()
        assert [(a["id"], a["code"]) for a in refusals] == [
            (100, protocol.ERR_BAD_REQUEST),
            (101, protocol.ERR_UNKNOWN_REACTOR),
            (3, protocol.ERR_OVERLOADED),
            (4, protocol.ERR_OVERLOADED)]
        assert harness.loop.run_ready() == ["_pump_once"]
        assert harness.runs == 1
        assert len(harness.transport.writes) == 1
        answers = harness.take_answers()
        assert [a["id"] for a in answers] == harness.completed
        assert sorted(harness.completed) == [1, 2]
        assert all(a["committed"] for a in answers)
        assert harness.server.inflight == 0
    finally:
        harness.close()


@each_codec
@pytest.mark.parametrize("last", ["goodbye", "undecodable"])
def test_answers_are_written_before_the_close(codec, last, monkeypatch):
    """A burst that ends the connection: every refusal already made is
    written — once — ahead of the ``close``, and what completes
    afterwards is dropped, not queued for a transport that is gone."""
    harness = Harness(monkeypatch, "sim", codec)
    try:
        burst = harness.frames([
            {"type": "request", "id": 100, "session": 0},
            deposit(1),
            protocol.request(101, 0, "nobody", "p", ()),
        ])
        if last == "goodbye":
            harness.conn.data_received(
                burst + harness.frames([protocol.goodbye()]))
            expected = [(100, protocol.ERR_BAD_REQUEST),
                        (101, protocol.ERR_UNKNOWN_REACTOR)]
        else:
            # The decoder raises before any frame of this segment is
            # handled, so the refusals come from the segment before.
            harness.conn.data_received(burst)
            harness.conn.data_received(b"\x00\x00\x00\x01\xc1")
            expected = [(100, protocol.ERR_BAD_REQUEST),
                        (101, protocol.ERR_UNKNOWN_REACTOR),
                        (None, protocol.ERR_BAD_REQUEST)]
        kinds = [kind for kind, __ in harness.transport.events]
        assert kinds == ["write"] * (len(kinds) - 1) + ["close"]
        assert [(a["id"], a["code"])
                for a in harness.take_answers()] == expected
        assert harness.loop.run_ready() == ["_pump_once"]
        assert harness.completed == [1]
        assert harness.transport.writes == []
        assert harness.conn.outbox == [] and \
            not harness.server._unflushed
        assert harness.server.inflight == 0
    finally:
        harness.close()


@each_codec
def test_threads_drain_of_queued_completions_writes_once(codec, monkeypatch):
    n = 12
    harness = Harness(monkeypatch, "threads", codec)
    try:
        harness.conn.data_received(
            harness.frames([deposit(rid) for rid in range(n)]))
        harness.database.scheduler.run()  # blocks until quiescent
        assert len(harness.server._completions) == n
        assert harness.transport.events == []  # queued, not yet drained
        assert harness.loop.run_ready() == ["_drain_completions"]
        assert len(harness.transport.writes) == 1
        answers = harness.take_answers()
        assert [a["id"] for a in answers] == harness.completed
        assert all(a["committed"] for a in answers), answers
        assert harness.server.inflight == 0
        assert harness.loop.ready == []
    finally:
        harness.close()


def test_lost_connection_drops_its_outbox(monkeypatch):
    harness = Harness(monkeypatch, "sim", "json")
    try:
        harness.conn.send(protocol.error(
            1, 0, protocol.ERR_INTERNAL, "never flushed"))
        assert harness.conn.outbox
        harness.conn.connection_lost(None)
        assert harness.conn.outbox == []
        harness.server._flush()
        assert harness.transport.writes == []
    finally:
        harness.close()
