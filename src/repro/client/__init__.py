"""The client package: one submission surface, embedded or remote.

:class:`Client` is the protocol; :class:`LocalClient` wraps
``db.submit`` in-process (zero overhead, the embedded path stays
public), :class:`TcpClient` speaks the :mod:`repro.serving` wire
protocol to a served database.
"""

from typing import Any

from repro import lazy_export
from repro.client.base import Client, Outcome, Spec, Submission
from repro.client.tcp import ClientSession, TcpClient

#: ``LocalClient`` wraps the engine, so it is imported on first access:
#: a ``TcpClient``-only process never loads it.
_LAZY = {"LocalClient": "repro.client.local"}


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _LAZY, name)


__all__ = [
    "Client",
    "ClientSession",
    "LocalClient",
    "Outcome",
    "Spec",
    "Submission",
    "TcpClient",
]
