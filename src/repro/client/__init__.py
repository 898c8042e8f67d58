"""The client package: one submission surface, embedded or remote.

:class:`Client` is the protocol; :class:`LocalClient` wraps
``db.submit`` in-process (zero overhead, the embedded path stays
public), :class:`TcpClient` speaks the :mod:`repro.serving` wire
protocol to a served database.
"""

from repro.client.base import Client, Outcome, Spec, Submission
from repro.client.local import LocalClient
from repro.client.tcp import ClientSession, TcpClient

__all__ = [
    "Client",
    "ClientSession",
    "LocalClient",
    "Outcome",
    "Spec",
    "Submission",
    "TcpClient",
]
