"""Wire framing and negotiation properties (repro.serving.protocol).

The framing contract: any message survives an encode/decode round
trip regardless of how TCP slices the byte stream — frames split
across arbitrarily many reads, frames coalesced into one read, both at
once — and a stream that ends mid-frame is rejected with the typed
:class:`TornFrameError`, never silently swallowed.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import protocol
from repro.serving.protocol import (
    FrameDecoder,
    TornFrameError,
    WireProtocolError,
    encode_frame,
)

# JSON-representable payloads (what procedures can return over the
# wire): scalars, then lists/dicts thereof.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=10), inner, max_size=5)),
    max_leaves=20,
)
messages = st.dictionaries(
    st.text(min_size=1, max_size=12), payloads, max_size=6)


def chop(data: bytes, cuts: list[int]) -> list[bytes]:
    """Slice ``data`` at relative cut points (simulated TCP reads)."""
    chunks, start = [], 0
    for cut in sorted(c % (len(data) + 1) for c in cuts):
        chunks.append(data[start:cut])
        start = cut
    chunks.append(data[start:])
    return [c for c in chunks if c]


@settings(max_examples=200, deadline=None)
@given(msgs=st.lists(messages, min_size=1, max_size=6),
       cuts=st.lists(st.integers(min_value=0), max_size=12))
def test_roundtrip_any_chunking(msgs, cuts):
    """N frames fed through arbitrary split/coalesce boundaries decode
    to exactly the original messages, in order."""
    stream = b"".join(encode_frame(m) for m in msgs)
    decoder = FrameDecoder("json")
    out = []
    for chunk in chop(stream, cuts):
        out.extend(decoder.feed(chunk))
    assert out == msgs
    decoder.check_eof()  # stream fully consumed: no torn frame


@pytest.mark.parametrize("codec", protocol.available_codecs())
@settings(max_examples=100, deadline=None)
@given(msgs=st.lists(messages, max_size=6),
       cuts=st.lists(st.integers(min_value=0), max_size=12))
def test_requests_pipelined_behind_hello_any_chunking(codec, msgs, cuts):
    """A JSON hello with N frames of the negotiated codec behind it in
    one segment, sliced anywhere: the hello decoder yields the hello
    alone, and ``take_buffered`` carries everything it held back into
    the stream decoder — nothing lost, nothing decoded as JSON."""
    hello = protocol.hello(codecs=(codec,))
    stream = encode_frame(hello) + b"".join(
        encode_frame(m, codec) for m in msgs)
    chunks = chop(stream, cuts)
    hello_decoder = FrameDecoder("json")
    opener = []
    while not opener:
        opener = hello_decoder.feed(chunks.pop(0), limit=1)
    assert opener == [hello]
    decoder = FrameDecoder(codec)
    out = decoder.feed(hello_decoder.take_buffered())
    assert hello_decoder.buffered == 0
    for chunk in chunks:
        out.extend(decoder.feed(chunk))
    assert out == msgs
    decoder.check_eof()


def test_feed_limit_leaves_the_rest_buffered():
    decoder = FrameDecoder("json")
    stream = b"".join(encode_frame({"n": n}) for n in range(3))
    assert decoder.feed(stream, limit=1) == [{"n": 0}]
    assert decoder.feed(b"", limit=1) == [{"n": 1}]
    assert decoder.feed(b"") == [{"n": 2}]
    decoder.check_eof()


@settings(max_examples=100, deadline=None)
@given(msg=messages, keep=st.integers(min_value=1))
def test_torn_frame_rejected(msg, keep):
    """A stream truncated anywhere inside a frame raises the typed
    TornFrameError at EOF."""
    frame = encode_frame(msg)
    truncated = frame[:keep % len(frame)] or frame[:1]
    decoder = FrameDecoder("json")
    assert decoder.feed(truncated) == []
    with pytest.raises(TornFrameError):
        decoder.check_eof()


@settings(max_examples=50, deadline=None)
@given(msgs=st.lists(messages, min_size=1, max_size=4), msg=messages)
def test_torn_tail_after_complete_frames(msgs, msg):
    """Complete frames decode; the torn tail still raises at EOF."""
    tail = encode_frame(msg)[:-1]
    decoder = FrameDecoder("json")
    out = decoder.feed(b"".join(encode_frame(m) for m in msgs) + tail)
    assert out == msgs
    with pytest.raises(TornFrameError):
        decoder.check_eof()


def test_oversize_declared_length_rejected():
    decoder = FrameDecoder("json", max_frame_bytes=64)
    huge = (1 << 20).to_bytes(4, "big")
    with pytest.raises(WireProtocolError, match="exceeds"):
        decoder.feed(huge)


def test_oversize_encode_rejected():
    with pytest.raises(WireProtocolError, match="exceeds"):
        encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})


def test_undecodable_payload_rejected():
    frame = len(b"not json").to_bytes(4, "big") + b"not json"
    with pytest.raises(WireProtocolError, match="undecodable"):
        FrameDecoder("json").feed(frame)


def test_deeply_nested_payload_is_a_typed_error():
    """The scanner's depth guard raises ``RecursionError``, not a
    ``ValueError``: still an undecodable frame, never an escape."""
    payload = b"[" * 100_000
    frame = len(payload).to_bytes(4, "big") + payload
    decoder = FrameDecoder("json")
    with pytest.raises(WireProtocolError, match="undecodable json"):
        decoder.feed(frame)
    assert decoder.buffered == 0  # the bad frame was consumed


# ----------------------------------------------------------------------
# The process-wide JSON codec against the stdlib entry points
# ----------------------------------------------------------------------

json_encode, json_decode = protocol.CODECS["json"]
whitespace = st.text(alphabet=" \t\r\n", max_size=4)


@settings(max_examples=200, deadline=None)
@given(value=payloads, indent=st.sampled_from([None, 0, 2]),
       before=whitespace, after=whitespace)
def test_decode_agrees_with_json_loads(value, indent, before, after):
    """Compact (the scanner consumes it exactly), padded inside and
    padded around (``json.loads`` takes over): one answer."""
    text = before + json.dumps(value, indent=indent) + after
    assert json_decode(text.encode()) == json.loads(text) == value


@settings(max_examples=100, deadline=None)
@given(value=payloads, other=payloads)
@example(value=1, other=0).via("the number 10")
@example(value=1.5, other=0).via("the number 1.50")
def test_trailing_garbage_is_rejected(value, other):
    # A second value after whitespace: bare, ``1`` then ``0`` would be
    # the one number ``10``.
    compact = json_encode(value)
    for tail in (b"x", b" x", b" " + json_encode(other)):
        with pytest.raises(WireProtocolError, match="undecodable"):
            json_decode(compact + tail)


def test_decode_accepts_what_json_loads_accepts():
    """Not only compact UTF-8: a BOM and UTF-16 were decodable before
    the fast path existed and still are."""
    for data in (b"\xef\xbb\xbf[1]", "[1]".encode("utf-16")):
        assert json_decode(data) == json.loads(data) == [1]
    for data in (b"", b" ", b"\xff", b"[1,]", b'{"a":1}x'):
        with pytest.raises(WireProtocolError, match="undecodable"):
            json_decode(data)


@settings(max_examples=200, deadline=None)
@given(value=payloads)
def test_encode_is_byte_identical_to_json_dumps(value):
    assert json_encode(value) == json.dumps(
        value, separators=(",", ":")).encode()


def cyclic() -> list:
    loop: list = []
    loop.append(loop)
    return loop


#: What no codec can carry, then what only JSON cannot (msgpack packs
#: a tuple key as an array).
UNENCODABLE = [
    pytest.param(codec, value, id=f"{name}-{codec}")
    for codec in protocol.available_codecs()
    for name, value in (("set", {1, 2}), ("object", object()),
                        ("cycle", cyclic()))
] + [pytest.param("json", {(1, 2): 3}, id="tuple-key-json"),
     pytest.param("json", 10 ** 5000, id="huge-int-json")]


@pytest.mark.parametrize("codec,value", UNENCODABLE)
def test_unencodable_value_is_a_typed_error(codec, value):
    with pytest.raises(WireProtocolError, match="unencodable"):
        encode_frame({"result": value}, codec)
    # ... and the codec is as good as new afterwards.
    (message,) = FrameDecoder(codec).feed(
        encode_frame({"result": [1]}, codec))
    assert message == {"result": [1]}


def test_decoder_hands_each_codec_a_bytes_like_payload(monkeypatch):
    """``FrameDecoder`` slices its buffer once per frame and passes the
    slice on: whatever a codec's ``decode`` is (``msgpack.unpackb``
    included), a ``bytes`` or ``bytearray`` is what it must take."""
    seen = []

    def decode(data):
        seen.append(type(data))
        return json.loads(bytes(data))

    monkeypatch.setitem(protocol.CODECS, "probe", (json_encode, decode))
    stream = b"".join(encode_frame({"n": n}, "probe") for n in range(3))
    decoder = FrameDecoder("probe")
    out = decoder.feed(stream[:7]) + decoder.feed(stream[7:])
    assert out == [{"n": 0}, {"n": 1}, {"n": 2}]
    assert set(seen) <= {bytes, bytearray}


def test_msgpack_decodes_what_the_decoder_hands_it():
    msgpack = pytest.importorskip("msgpack")
    message = {"id": 7, "blob": b"\x00\xff", "text": "\u00e9"}
    packed = msgpack.packb(message, use_bin_type=True)
    __, decode = protocol.CODECS["msgpack"]
    assert decode(bytearray(packed)) == decode(packed) == message
    (out,) = FrameDecoder("msgpack").feed(
        encode_frame(message, "msgpack"))
    assert out == message


def test_unknown_codec_rejected():
    with pytest.raises(WireProtocolError, match="unknown codec"):
        FrameDecoder("zstd")


def test_negotiate_picks_highest_common_version():
    version, codec = protocol.negotiate([1, 99], ["json"])
    assert version == protocol.PROTOCOL_VERSION
    assert codec == "json"


def test_negotiate_rejects_version_mismatch():
    with pytest.raises(WireProtocolError, match="no common protocol"):
        protocol.negotiate([99], ["json"])


def test_negotiate_rejects_codec_mismatch():
    with pytest.raises(WireProtocolError, match="no common codec"):
        protocol.negotiate([1], ["zstd"])


def test_negotiate_respects_client_codec_preference():
    offered = list(protocol.available_codecs())
    __, codec = protocol.negotiate([1], offered)
    assert codec == offered[0]


def test_json_codec_always_available():
    assert "json" in protocol.available_codecs()


def test_validate_request_accepts_wellformed():
    msg = protocol.request(1, 0, "acct", "credit", (1.0,),
                           read_only=True)
    assert protocol.validate_request(msg) is None


@pytest.mark.parametrize("mutate,expected", [
    (lambda m: m.pop("id"), "missing field 'id'"),
    (lambda m: m.update(id="one"), "field 'id' has type"),
    (lambda m: m.update(args=7), "field 'args' has type"),
    (lambda m: m.update(read_only="yes"), "'read_only' must be"),
])
def test_validate_request_rejects_malformed(mutate, expected):
    msg = protocol.request(1, 0, "acct", "credit", (1.0,))
    mutate(msg)
    assert expected in protocol.validate_request(msg)


def test_validate_request_rejects_non_mapping():
    assert protocol.validate_request([1, 2]) == \
        "request is not a mapping"
