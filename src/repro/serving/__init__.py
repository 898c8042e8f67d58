"""The networked serving layer: clients on the other side of a wire.

Everything below this package fronts a
:class:`~repro.core.database.ReactorDatabase` to *remote* clients over
TCP, so transactions originate outside the process — the
black-box setting the snapshot-isolation checking literature assumes,
and the boundary ROADMAP item 1 asks for on the path to "millions of
clients".

* :mod:`repro.serving.protocol` — length-prefixed frames, typed
  request/response/error messages, version + codec negotiation
  (msgpack when available, JSON always);
* :mod:`repro.serving.server` — the TCP server, on a selector loop of
  its own (no asyncio): session multiplexing (many logical sessions
  per connection, out-of-order responses matched by request id) and
  wire-level admission control (bounded in-flight requests; excess
  load is shed with a typed ``overloaded`` response carrying a
  retry-after hint, never parked unboundedly).

The client half of the wire lives in :mod:`repro.client`
(:class:`~repro.client.TcpClient`); see ``docs/serving.md`` for the
protocol spec and methodology notes.
"""

from typing import Any

from repro import lazy_export
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    Overloaded,
    TornFrameError,
    WireProtocolError,
)

#: The server fronts the engine, so it is imported on first access: a
#: client process that needs only the protocol never loads it.
_LAZY = dict.fromkeys(("ReactorServer", "ServerThread", "serve_in_thread"),
                      "repro.serving.server")


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _LAZY, name)


__all__ = [
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "Overloaded",
    "ReactorServer",
    "ServerThread",
    "TornFrameError",
    "WireProtocolError",
    "serve_in_thread",
]
