"""YCSB with a multi_update transaction (paper Appendix C).

Each key is a reactor encapsulating a single-row ``kv`` relation with a
100-byte payload, matching the paper's setup: scale factor 4 (10,000
keys per scale factor), four containers of one executor each holding
contiguous key ranges, and a ``multi_update`` transaction that invokes
a read-modify-write ``update_one`` sub-transaction asynchronously on
each of 10 keys drawn from a zipfian distribution.

To keep transactions fork-join (so the cost model of Figure 3
applies), keys on remote executors are sorted before keys local to the
initiating reactor's executor — exactly the trick the paper describes.
"""

from __future__ import annotations

import random

from repro.core.database import ReactorDatabase
from repro.core.reactor import ReactorType
from repro.relational import make_schema, str_col
from repro.sim.rng import ZipfianGenerator

KEYS_PER_SCALE_FACTOR = 10_000
RECORD_SIZE = 100


def kv_schema():
    return [
        make_schema("kv", [str_col("key"), str_col("value")], ["key"]),
    ]


KEY_REACTOR = ReactorType("YcsbKey", kv_schema)


@KEY_REACTOR.procedure(read_only=True)
def read_one(ctx):
    """Point read of this key's record.

    Declared read-only: eligible for replica routing and — under
    ``snapshot_reads`` deployments — served from an abort-free
    multi-version snapshot.
    """
    row = ctx.lookup("kv", ctx.my_name())
    return row["value"] if row else None


@KEY_REACTOR.procedure(read_only=True)
def multi_read(ctx, keys: list):
    """Asynchronously read every key in ``keys`` (read-only analogue
    of :func:`multi_update`; the read-heavy mix the snapshot-read
    ablation measures)."""
    for key in keys:
        yield ctx.call(key, "read_one")


@KEY_REACTOR.procedure
def update_one(ctx, delta: str):
    """Read-modify-write of this key's 100-byte record."""
    row = ctx.lookup("kv", ctx.my_name())
    if row is None:
        ctx.abort(f"missing key {ctx.my_name()!r}")
    new_value = (delta + row["value"])[:RECORD_SIZE]
    ctx.update("kv", ctx.my_name(), {"value": new_value})
    return new_value


@KEY_REACTOR.procedure
def multi_update(ctx, keys: list, delta: str):
    """Asynchronously update every key in ``keys``.

    The initiating reactor's own key (if present) updates inline;
    remote keys are dispatched asynchronously and collected by the
    implicit frame-end synchronization.
    """
    for key in keys:
        yield ctx.call(key, "update_one", delta)


def key_name(index: int) -> str:
    return f"key{index:06d}"


def declarations(scale_factor: int) -> list[tuple[str, ReactorType]]:
    n_keys = scale_factor * KEYS_PER_SCALE_FACTOR
    return [(key_name(i), KEY_REACTOR) for i in range(n_keys)]


def load(database: ReactorDatabase, scale_factor: int) -> None:
    for i in range(scale_factor * KEYS_PER_SCALE_FACTOR):
        name = key_name(i)
        database.load(name, "kv",
                      [{"key": name, "value": "x" * RECORD_SIZE}])


class YcsbWorkload:
    """multi_update input generation with zipfian key choice.

    ``executor_of(index)`` tells the generator which executor hosts a
    key so it can apply the paper's fork-join ordering (remote keys
    before local keys) and pick the initiating reactor among the 10
    chosen keys at random.
    """

    def __init__(self, scale_factor: int, theta: float,
                 n_containers: int, keys_per_txn: int = 10,
                 seed: int = 42, n_keys: int | None = None,
                 read_fraction: float = 0.0,
                 read_keys_per_txn: int | None = None) -> None:
        #: ``n_keys`` overrides the scale-factor-derived keyspace
        #: (tests and demos use small keyspaces).
        self.n_keys = n_keys or scale_factor * KEYS_PER_SCALE_FACTOR
        self.theta = theta
        self.keys_per_txn = keys_per_txn
        self.n_containers = n_containers
        self.keys_per_container = self.n_keys // n_containers
        #: Fraction of transactions issued as read-only ``multi_read``
        #: over the same zipfian key choice (0 keeps the classic
        #: all-``multi_update`` workload).
        self.read_fraction = read_fraction
        #: Keys per ``multi_read`` (defaults to ``keys_per_txn``); a
        #: wider read span models read-mostly analytics over the hot
        #: set — long validated read sets are exactly what multi-
        #: version snapshots remove.
        self.read_keys_per_txn = read_keys_per_txn or keys_per_txn
        self._rng = random.Random(f"ycsb/{seed}")
        self._zipf = ZipfianGenerator(self.n_keys, theta, self._rng)

    def container_of(self, index: int) -> int:
        return min(index // self.keys_per_container,
                   self.n_containers - 1)

    def next_txn(self, worker) -> tuple[str, str, tuple]:
        rng = worker.rng
        read_only = bool(self.read_fraction
                         and rng.random() < self.read_fraction)
        n_draws = self.read_keys_per_txn if read_only \
            else self.keys_per_txn
        # Draw zipfian keys and collapse duplicates: at extreme skew
        # ("5.0: a single reactor is accessed") most draws repeat the
        # hottest key, so the transaction touches fewer reactors —
        # which is exactly the effect the paper studies.
        chosen: list[int] = []
        seen: set[int] = set()
        for __ in range(n_draws):
            index = self._zipf.next()
            if index not in seen:
                seen.add(index)
                chosen.append(index)
        initiator = chosen[rng.randrange(len(chosen))]
        home = self.container_of(initiator)
        # Fork-join ordering: remote-container keys first, local last.
        remote = [i for i in chosen if self.container_of(i) != home]
        local = [i for i in chosen if self.container_of(i) == home]
        ordered = [key_name(i) for i in remote + local]
        if read_only:
            return (key_name(initiator), "multi_read", (ordered,))
        return (key_name(initiator), "multi_update",
                (ordered, f"u{worker.issued % 10}"))

    def factory_for(self, worker_id: int):
        return self.next_txn
