"""The wire protocol: length-prefixed frames and typed messages.

Framing
-------

Every message travels as one *frame*: a 4-byte big-endian unsigned
payload length followed by the payload bytes, which decode — under the
connection's negotiated codec — to one message dict.  Frames carry no
alignment or padding; any number of frames may be coalesced into one
TCP segment and one frame may be split across arbitrarily many reads,
so :class:`FrameDecoder` is an incremental parser fed raw bytes.

A declared length above :data:`MAX_FRAME_BYTES` is a protocol error
(the peer is confused or hostile — reading on would buffer without
bound), an undecodable payload is a protocol error, and bytes left in
the buffer at connection EOF are a *torn frame*
(:class:`TornFrameError`) — typed, so servers and clients can report
exactly what went wrong instead of a generic disconnect.

Codecs and negotiation
----------------------

Payload encoding is negotiated per connection.  The ``hello`` /
``hello_ok`` exchange itself is always JSON (the bootstrap has to be
readable before any negotiation): the client offers the protocol
versions it speaks and its codecs in preference order; the server
picks the highest common version and the first offered codec it has,
or answers ``hello_error`` and closes.  ``json`` is always available;
``msgpack`` is offered only when the optional dependency is importable
(the container image may not ship it — nothing here imports it
unconditionally).  A value a codec cannot carry — a ``set``, a
tuple-keyed dict, a cycle — raises :class:`WireProtocolError` at the
sender, before any byte is written; too deep a nesting raises it at the
receiver, like any other undecodable payload.

Messages
--------

Every message is a dict with a ``"type"`` key:

=============  ========================================================
``hello``      ``versions`` (list), ``codecs`` (list) — client opener
``hello_ok``   ``version``, ``codec`` — server's negotiated choice
``hello_error``  ``detail`` — negotiation failed, connection closes
``request``    ``id``, ``session``, ``reactor``, ``proc``, ``args``,
               optional ``read_only`` — one root transaction
``response``   ``id``, ``session``, ``committed``, ``result`` /
               ``reason`` — terminal answer, matched by request id
``error``      ``id``, ``session``, ``code``, ``detail``, optional
               ``retry_after_us`` — typed refusal (``overloaded``,
               ``bad_request``, ``unknown_reactor``, ``internal``)
``goodbye``    clean client shutdown of a connection
=============  ========================================================

Responses are matched to requests by ``(session, id)`` and may arrive
in any order — the server answers in completion order, which is the
whole point of multiplexing many logical sessions over one connection.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable

from repro.errors import ReactorError

try:  # optional: the image may not ship msgpack.
    import msgpack as _msgpack
except ImportError:  # pragma: no cover - absent in the CI image
    _msgpack = None

#: Protocol versions this implementation speaks, newest first.
PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = (1,)

#: Hard bound on one frame's payload; a longer declared length is a
#: protocol error, not a buffering request.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Error codes an ``error`` message may carry.
ERR_OVERLOADED = "overloaded"
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_REACTOR = "unknown_reactor"
ERR_INTERNAL = "internal"


class WireProtocolError(ReactorError):
    """The peer violated the framing or message contract."""


class TornFrameError(WireProtocolError):
    """The connection ended mid-frame (bytes left in the buffer)."""


class Overloaded(ReactorError):
    """The server shed this request at the wire (admission control).

    ``retry_after_us`` is the server's hint: how long the client
    should back off before resubmitting.
    """

    def __init__(self, detail: str, retry_after_us: float = 0.0) -> None:
        super().__init__(detail)
        self.retry_after_us = retry_after_us


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

#: The C encoder and scanner, built once per process: ``json.dumps`` /
#: ``JSONEncoder.encode`` construct a ``c_make_encoder`` on every call
#: and ``json.loads`` re-detects the payload's encoding on every call.
#: No ``markers`` dict (the circular-reference check): a shared one
#: keeps every container an encode failed inside, and a cycle is still
#: caught, as the ``RecursionError`` the encoder's depth guard raises.
_JSON_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii, None, ":", ",",
    False, False, True)
_JSON_SCAN = json.JSONDecoder().scan_once


def _json_encode(obj: Any) -> bytes:
    try:
        return "".join(_JSON_ENCODE(obj, 0)).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as error:
        # An unsupported type or key, an int past the str-conversion
        # limit, a cycle or too deep a nesting: the caller's value,
        # not the peer's fault, but one typed error for both.
        raise WireProtocolError(
            f"unencodable json payload: {error}") from None


def _json_decode(data: bytes) -> Any:
    """One whole JSON value.  The fast path is what ``json.loads``
    does after it has detected the encoding and skipped whitespace;
    anything it does not consume exactly (padding, a BOM, UTF-16,
    trailing garbage, a syntax error) is ``json.loads``'s to accept or
    reject, so both paths agree on every input."""
    try:
        try:
            text = data.decode("utf-8")
            value, end = _JSON_SCAN(text, 0)
            if end == len(text):
                return value
        except (StopIteration, ValueError):
            pass
        return json.loads(data)
    except (ValueError, RecursionError) as error:
        raise WireProtocolError(
            f"undecodable json payload: {error}") from None


#: codec name -> (encode, decode).  ``json`` is the always-available
#: floor; ``msgpack`` joins when the optional dependency is present.
CODECS: dict[str, tuple[Callable[[Any], bytes],
                        Callable[[bytes], Any]]] = {
    "json": (_json_encode, _json_decode),
}

if _msgpack is not None:  # pragma: no cover - absent in the CI image
    def _msgpack_encode(obj: Any) -> bytes:
        try:
            return _msgpack.packb(obj, use_bin_type=True)
        except Exception as error:  # noqa: BLE001 - lib-specific roots
            raise WireProtocolError(
                f"unencodable msgpack payload: {error}") from None

    def _msgpack_decode(data: bytes) -> Any:
        try:
            return _msgpack.unpackb(data, raw=False)
        except Exception as error:  # noqa: BLE001 - lib-specific roots
            raise WireProtocolError(
                f"undecodable msgpack payload: {error}") from None

    CODECS["msgpack"] = (_msgpack_encode, _msgpack_decode)


def available_codecs() -> tuple[str, ...]:
    """Codec names this process can speak, preference order first
    (msgpack beats JSON when both sides have it)."""
    return tuple(name for name in ("msgpack", "json")
                 if name in CODECS)


def negotiate(versions: Any, codecs: Any) -> tuple[int, str]:
    """The server's side of the hello exchange: pick the highest
    common protocol version and the client's most-preferred codec we
    have.  Raises :class:`WireProtocolError` when no overlap exists."""
    if not isinstance(versions, (list, tuple)) or not versions:
        raise WireProtocolError("hello carries no versions list")
    common = [v for v in versions if v in SUPPORTED_VERSIONS]
    if not common:
        raise WireProtocolError(
            f"no common protocol version: client speaks {versions}, "
            f"server speaks {list(SUPPORTED_VERSIONS)}")
    if not isinstance(codecs, (list, tuple)) or not codecs:
        raise WireProtocolError("hello carries no codecs list")
    for name in codecs:
        if name in CODECS:
            return max(common), name
    raise WireProtocolError(
        f"no common codec: client offers {codecs}, server has "
        f"{list(available_codecs())}")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(message: Any, codec: str = "json") -> bytes:
    """One message as a length-prefixed frame under ``codec``."""
    encode, __ = CODECS[codec]
    payload = encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever the socket produced — half a length prefix, three
    coalesced frames, one byte at a time — and it yields every complete
    message while buffering the tail.  Call :meth:`check_eof` when the
    stream ends: leftover bytes mean the peer died mid-frame and raise
    :class:`TornFrameError`.
    """

    __slots__ = ("codec", "max_frame_bytes", "_buffer")

    def __init__(self, codec: str = "json",
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if codec not in CODECS:
            raise WireProtocolError(f"unknown codec {codec!r}")
        self.codec = codec
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes, limit: int | None = None) -> list[Any]:
        """Absorb ``data``; return every now-complete message — at
        most ``limit`` of them, the rest staying buffered (the hello
        exchange decodes one frame; what follows it may be in another
        codec)."""
        buffer = self._buffer
        buffer.extend(data)
        __, decode = CODECS[self.codec]
        messages: list[Any] = []
        size = len(buffer)
        offset = 0  # consumed so far; the buffer is trimmed once
        try:
            while limit is None or len(messages) < limit:
                start = offset + _LEN.size
                if size < start:
                    break
                (length,) = _LEN.unpack_from(buffer, offset)
                if length > self.max_frame_bytes:
                    raise WireProtocolError(
                        f"declared frame length {length} exceeds the "
                        f"{self.max_frame_bytes}-byte bound")
                end = start + length
                if size < end:
                    break
                offset = end  # an undecodable frame is consumed too
                # One copy per frame: the slice is a ``bytearray``,
                # which both codecs take as they take ``bytes``.
                messages.append(decode(buffer[start:end]))
        finally:
            del buffer[:offset]
        return messages

    def take_buffered(self) -> bytes:
        """Hand over, and forget, the bytes held back: what a peer
        pipelined behind its hello belongs to the negotiated stream's
        decoder."""
        held = bytes(self._buffer)
        self._buffer.clear()
        return held

    def check_eof(self) -> None:
        """The stream ended; reject a partially buffered frame."""
        if self._buffer:
            raise TornFrameError(
                f"connection ended mid-frame with "
                f"{len(self._buffer)} buffered bytes")


# ----------------------------------------------------------------------
# Message constructors and validation
# ----------------------------------------------------------------------

def hello(versions: tuple[int, ...] = SUPPORTED_VERSIONS,
          codecs: tuple[str, ...] | None = None) -> dict[str, Any]:
    return {"type": "hello", "versions": list(versions),
            "codecs": list(codecs or available_codecs())}


def hello_ok(version: int, codec: str) -> dict[str, Any]:
    return {"type": "hello_ok", "version": version, "codec": codec}


def hello_error(detail: str) -> dict[str, Any]:
    return {"type": "hello_error", "detail": detail}


def request(request_id: int, session: int, reactor: str, proc: str,
            args: tuple, read_only: bool | None = None
            ) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": "request", "id": request_id, "session": session,
        "reactor": reactor, "proc": proc, "args": list(args),
    }
    if read_only is not None:
        message["read_only"] = bool(read_only)
    return message


def response(request_id: int, session: int, committed: bool,
             result: Any = None, reason: str | None = None
             ) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": "response", "id": request_id, "session": session,
        "committed": bool(committed),
    }
    if committed:
        message["result"] = result
    else:
        message["reason"] = reason
    return message


def error(request_id: int | None, session: int | None, code: str,
          detail: str, retry_after_us: float | None = None
          ) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": "error", "id": request_id, "session": session,
        "code": code, "detail": detail,
    }
    if retry_after_us is not None:
        message["retry_after_us"] = retry_after_us
    return message


def goodbye() -> dict[str, Any]:
    return {"type": "goodbye"}


#: Fields a request must carry, with their accepted types.
_REQUEST_FIELDS = (
    ("id", int), ("session", int), ("reactor", str), ("proc", str),
    ("args", (list, tuple)),
)


def validate_request(message: Any) -> str | None:
    """Why ``message`` is not a well-formed request, or ``None``."""
    if not isinstance(message, dict):
        return "request is not a mapping"
    for field, types in _REQUEST_FIELDS:
        if field not in message:
            return f"request missing field {field!r}"
        if not isinstance(message[field], types):
            return (f"request field {field!r} has type "
                    f"{type(message[field]).__name__}")
    read_only = message.get("read_only")
    if read_only is not None and not isinstance(read_only, bool):
        return "request field 'read_only' must be a bool"
    return None


__all__ = [
    "CODECS",
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_UNKNOWN_REACTOR",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "FrameDecoder",
    "Overloaded",
    "TornFrameError",
    "WireProtocolError",
    "available_codecs",
    "encode_frame",
    "error",
    "goodbye",
    "hello",
    "hello_error",
    "hello_ok",
    "negotiate",
    "request",
    "response",
    "validate_request",
]
