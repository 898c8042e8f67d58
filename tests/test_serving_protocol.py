"""Wire framing and negotiation properties (repro.serving.protocol).

The framing contract: any message survives an encode/decode round
trip regardless of how TCP slices the byte stream — frames split
across arbitrarily many reads, frames coalesced into one read, both at
once — and a stream that ends mid-frame is rejected with the typed
:class:`TornFrameError`, never silently swallowed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
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
