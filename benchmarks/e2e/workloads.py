"""The four workloads: what each builds, how it is driven, and why.

A workload is a database configuration plus a way of reaching it
(embedded ``LocalClient`` or ``serve_in_thread`` + one ``TcpClient``).
The ``why`` strings are the ones ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass
from typing import Any, Iterator

from repro.client import LocalClient, TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.durability.config import DurabilityConfig
from repro.experiments.common import tpcc_database
from repro.serving import serve_in_thread
from repro.workloads import smallbank

from harness import Driver, Spans
from inputs import SMALLBANK_CUSTOMERS, TPCC_WAREHOUSES

#: The wire codec is fixed: msgpack is absent from this image, and a
#: machine that has it must still measure the same program.
CODEC = "json"

#: Open-loop arrival rate of the served latency phase, requests/s —
#: about a quarter of the measured closed-loop capacity, so queueing
#: is present but the backlog never grows.
OPEN_LOOP_RATE = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # input generator: "smallbank" | "tpcc"
    served: bool       # TcpClient through serve_in_thread, or LocalClient
    backend: str       # execution backend: "sim" | "threads"
    window: int        # requests in flight in the capacity phase
    why: str
    customers: int = SMALLBANK_CUSTOMERS  # SmallBank database size

    def build(self) -> ReactorDatabase:
        """A freshly built and bulk-loaded database."""
        if self.kind == "tpcc":
            return tpcc_database(
                "shared-nothing-async", TPCC_WAREHOUSES, mpl=4,
                durability=DurabilityConfig(enabled=True, mode="group"),
                backend=self.backend)
        deployment = shared_nothing(
            2, mpl=8, cc_scheme="occ",
            placement=RangePlacement(self.customers // 2),
            backend=self.backend)
        database = ReactorDatabase(
            deployment, smallbank.declarations(self.customers))
        smallbank.load(database, self.customers)
        return database

    @contextlib.contextmanager
    def opened(self, database: ReactorDatabase) -> Iterator[Any]:
        """The client this workload reaches its database through."""
        if self.served:
            with served(database) as client:
                yield client
        else:
            yield LocalClient(database)

    def warm_up(self, driver: Driver, feed: Iterator,
                count: int) -> None:
        """Untimed transactions, then a full collection: the cyclic
        garbage of set-up and of the previous repeat's database (a
        0.1-0.3 s pause when it is collected) must not land in a
        timed phase of this one."""
        if self.served:
            driver.closed_loop(feed, self.window, count=count,
                               phase="warmup")
        else:
            driver.windows(feed, self.window, count=count,
                           phase="warmup")
        gc.collect()

    def capacity_phase(self, driver: Driver, feed: Iterator,
                       seconds: float) -> Spans:
        """Closed loop with ``window`` requests in flight."""
        if self.served:
            return driver.closed_loop(feed, self.window,
                                      seconds=seconds)
        return driver.windows(feed, self.window, seconds=seconds)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sb_embedded", "smallbank", served=False, backend="sim",
        window=16,
        why="SmallBank point transactions through LocalClient: "
            "runtime/concurrency/core/sim do the work and "
            "client/serving do none, so serving-path changes must "
            "show nothing here."),
    Workload(
        "sb_served", "smallbank", served=True, backend="sim",
        window=16,
        why="The same database and inputs through serve_in_thread + "
            "one TcpClient (sim pump): client, protocol, server and "
            "asyncio/json dominate each request, so codec, batching "
            "and thread-hop work shows here."),
    Workload(
        "sb_served_threads", "smallbank", served=True,
        backend="threads", window=16,
        why="As sb_served on the threads backend (no pump, "
            "call_soon_threadsafe completions): the only workload "
            "where runtime.threads queues and locks work, so a "
            "pump-only change must leave it flat."),
    Workload(
        "tpcc_embedded", "tpcc", served=False, backend="sim",
        window=8,
        why="TPC-C standard mix, 2 warehouses, group-commit WAL: "
            "big read/write sets, scans, cross-container 2PC and a "
            "contended district row, so a point-path win that taxes "
            "scans, contention or logging shows."),
)}


# ----------------------------------------------------------------------
# The wire path
# ----------------------------------------------------------------------

@contextlib.contextmanager
def served(database: Any) -> Iterator[TcpClient]:
    """``serve_in_thread`` + one connected ``TcpClient``."""
    server = serve_in_thread(database)
    try:
        client = TcpClient(server.host, server.port,
                           codecs=(CODEC,)).connect()
        try:
            yield client
        finally:
            client.close()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# The floor probe: a reactor type the benchmark declares itself
# ----------------------------------------------------------------------

NOOP = ReactorType("E2eNoop", lambda: [])


@NOOP.procedure
def noop(ctx):
    """Touches no data: the empty-transaction and wire floors."""
    return None


def build_noop(backend: str) -> ReactorDatabase:
    """A two-reactor database whose only procedure does nothing."""
    return ReactorDatabase(
        shared_nothing(2, mpl=8, cc_scheme="occ", backend=backend),
        [("noop0", NOOP), ("noop1", NOOP)])
