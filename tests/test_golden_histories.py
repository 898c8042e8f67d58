"""Golden seeded-history digests: one tree against a committed file.

There is one commit path and no second implementation to compare it
with, so the oracle is black-box: this file pins the observable
history of three seeded workloads — a contended
SmallBank mix, a tiny TPC-C standard mix over a group-commit WAL, and
a skewed YCSB mix — under every built-in CC scheme, plus OCC with
snapshot reads, and two seeds against sha256 digests committed in
``tests/golden/histories.json``.  TPC-C also runs under OCC with one
``sync`` replica per container: there a commit's client ack waits on
both its log flush and its replica ack window.

Each case is run twice:

* ``recorded`` — history recorder attached, every root traced: the
  digest covers results, commit TIDs, per-container redo logs, the
  recorded operation stream, the Chrome trace export's spans, the
  virtual end time and the CC stats;
* ``plain`` — no recorder, default telemetry (the path benchmarks
  run): the same minus the operation stream and the trace.

The trace export's ``metrics`` block (the registry snapshot) has its
own ``metrics`` digest, so adding or deleting a catalog metric moves
that digest alone and no history digest.  The scheduler's event
count, ``scheduler.events_dispatched``, is pinned beside the digests
as an exact ``events`` number per case (the snapshot's
``scheduler_events_dispatched_total`` is checked equal to it and left
out of the digest): a change that merges hops adjacent in virtual
time moves that number alone.

Any change to virtual costs, event order, TID assignment, validation
order or log contents changes a digest.  A change that is *meant* to
move histories regenerates the file and says so::

    PYTHONPATH=src python tests/test_golden_histories.py --regen
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.concurrency import BUILTIN_CC_SCHEMES
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.durability.config import DurabilityConfig
from repro.durability.recovery import enable_durability
from repro.durability.wal import unseal
from repro.experiments.common import tpcc_deployment
from repro.formal.audit import attach_recorder
from repro.replication.config import ReplicationConfig
from repro.telemetry.config import full_tracing
from repro.workloads import smallbank as sb
from repro.workloads import tpcc, ycsb

GOLDEN = Path(__file__).parent / "golden" / "histories.json"

WORKLOADS = ("smallbank", "tpcc", "ycsb")
#: Every pinned configuration: a ``cc_scheme`` name, optionally
#: suffixed ``+snapshot_reads`` (read-only roots read snapshots).
CONFIGS = BUILTIN_CC_SCHEMES + ("occ+snapshot_reads",)
#: Pinned for TPC-C only: one ``sync`` replica per container.
SYNC_REPLICA = "occ+sync_replica"
SEEDS = (11, 23)
#: Every pinned ``(workload, configuration, seed)`` case.
CASES = [(w, s, seed) for w in WORKLOADS for s in CONFIGS
         for seed in SEEDS] + [("tpcc", SYNC_REPLICA, seed)
                               for seed in SEEDS]
#: Roots in flight: each completion submits the next spec.
WINDOW = 8

SB_CUSTOMERS = 8
TPCC_SCALE = tpcc.TpccScale(districts=3, customers_per_district=20,
                            items=50, orders_per_district=10,
                            last_names=5)
YCSB_KEYS = 32
YCSB_CONTAINERS = 4


class _Worker:
    """What the workload generators read from their worker."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.issued = 0


def _split(config: str) -> tuple[str, str]:
    """A configuration label as ``(cc_scheme, switch)``; ``switch`` is
    ``""``, ``"snapshot_reads"`` or ``"sync_replica"``."""
    scheme, __, switch = config.partition("+")
    return scheme, switch


def _smallbank(scheme: str, seed: int, recorded: bool):
    scheme, switch = _split(scheme)
    deployment = shared_nothing(4, mpl=4, cc_scheme=scheme,
                                snapshot_reads=switch == "snapshot_reads")
    if recorded:
        deployment.telemetry = full_tracing()
    database = ReactorDatabase(deployment,
                               sb.declarations(SB_CUSTOMERS))
    sb.load(database, SB_CUSTOMERS)
    enable_durability(database)  # async: attaches redo logs only
    rng = random.Random(f"golden/smallbank/{seed}")
    worker = _Worker(rng)
    next_txn = sb.SmallbankWorkload(
        SB_CUSTOMERS, hotspot_fraction=0.5).next_txn
    specs = []
    for i in range(150):
        if i % 5 == 0:
            # Cross-container multi-transfers in every formulation.
            src = rng.randrange(SB_CUSTOMERS)
            dsts = [sb.reactor_name((src + k) % SB_CUSTOMERS)
                    for k in (1, 3)]
            specs.append(sb.multi_transfer_spec(
                sb.VARIANTS[(i // 5) % len(sb.VARIANTS)],
                sb.reactor_name(src), dsts, 1.0))
        else:
            specs.append(next_txn(worker))
    return database, specs


def _tpcc(scheme: str, seed: int, recorded: bool):
    scheme, switch = _split(scheme)
    replication = (ReplicationConfig(1, "sync")
                   if switch == "sync_replica" else None)
    deployment = tpcc_deployment(
        "shared-nothing-async", 2, mpl=4, cc_scheme=scheme,
        replication=replication,
        durability=DurabilityConfig(enabled=True, mode="group"))
    deployment.snapshot_reads = switch == "snapshot_reads"
    if recorded:
        deployment.telemetry = full_tracing()
    database = ReactorDatabase(deployment, tpcc.declarations(2))
    tpcc.load(database, 2, TPCC_SCALE)
    worker = _Worker(random.Random(f"golden/tpcc/{seed}"))
    workload = tpcc.TpccWorkload(n_warehouses=2, scale=TPCC_SCALE,
                                 remote_item_prob=0.2, seed=seed)
    factories = [workload.factory_for(w) for w in range(2)]
    specs = [factories[i % 2](worker) for i in range(90)]
    return database, specs


def _ycsb(scheme: str, seed: int, recorded: bool):
    scheme, switch = _split(scheme)
    deployment = shared_nothing(
        YCSB_CONTAINERS, mpl=4, cc_scheme=scheme,
        snapshot_reads=switch == "snapshot_reads",
        placement=RangePlacement(YCSB_KEYS // YCSB_CONTAINERS))
    if recorded:
        deployment.telemetry = full_tracing()
    database = ReactorDatabase(
        deployment, [(ycsb.key_name(i), ycsb.KEY_REACTOR)
                     for i in range(YCSB_KEYS)])
    for i in range(YCSB_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv", [
            {"key": name, "value": "x" * ycsb.RECORD_SIZE}])
    enable_durability(database)
    worker = _Worker(random.Random(f"golden/ycsb/{seed}"))
    workload = ycsb.YcsbWorkload(
        1, theta=0.8, n_containers=YCSB_CONTAINERS, n_keys=YCSB_KEYS,
        keys_per_txn=4, seed=seed, read_fraction=0.3)
    specs = []
    for __ in range(100):
        specs.append(workload.next_txn(worker))
        worker.issued += 1
    return database, specs


_BUILDERS = {"smallbank": _smallbank, "tpcc": _tpcc, "ycsb": _ycsb}


def redo_text(log) -> str:
    """A container's redo log as the digest covers it: one
    ``json.dumps`` line per record."""
    return "\n".join(json.dumps({
        "tid": record.commit_tid,
        "entries": [{"reactor": e.reactor, "table": e.table,
                     "kind": e.kind, "pk": list(e.pk), "row": e.row}
                    for e in record.entries]})
        for record in map(unseal, log.records))


def observe(workload: str, scheme: str, seed: int,
            recorded: bool) -> dict:
    """One seeded closed-loop run; everything observable about it."""
    database, specs = _BUILDERS[workload](scheme, seed, recorded)
    recorder = attach_recorder(database) if recorded else None
    results: list = [None] * len(specs)
    cursor = iter(enumerate(specs))

    def submit_next() -> None:
        for index, (reactor, proc, args) in cursor:
            database.submit(reactor, proc, *args,
                            on_done=make_on_done(index))
            return

    def make_on_done(index: int):
        def on_done(root, committed, reason, result):
            results[index] = (committed, reason, root.commit_tid,
                              repr(result))
            submit_next()
        return on_done

    for __ in range(WINDOW):
        submit_next()
    database.scheduler.run()
    assert None not in results

    seen = {
        "results": results,
        "end_time": repr(database.scheduler.now),
        "events_dispatched": database.scheduler.events_dispatched,
        "redo": [redo_text(c.concurrency.redo_log)
                 for c in database.containers],
        "cc_stats": [asdict(c.concurrency.stats)
                     for c in database.containers],
    }
    if recorder is not None:
        seen["events"] = [repr(event)
                          for event in recorder.history.events]
        trace = database.telemetry.export_chrome()
        metrics = trace.pop("metrics")
        assert metrics.pop("scheduler_events_dispatched_total") \
            == seen["events_dispatched"]
        seen["trace"] = trace
        seen["metrics"] = metrics
    database.close()
    return seen


def digest(seen: dict) -> str:
    blob = json.dumps(seen, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def case_key(workload: str, scheme: str, seed: int) -> str:
    return f"{workload}/{scheme}/{seed}"


def compute(workload: str, scheme: str, seed: int) -> dict[str, str]:
    recorded = observe(workload, scheme, seed, recorded=True)
    plain = observe(workload, scheme, seed, recorded=False)
    # The recorder and the tracer observe; they must not perturb.
    for field in plain:
        assert plain[field] == recorded[field], field
    events = plain.pop("events_dispatched")
    del recorded["events_dispatched"]
    metrics = recorded.pop("metrics")
    commits = sum(1 for r in plain["results"] if r[0])
    return {"recorded": digest(recorded), "metrics": digest(metrics),
            "plain": digest(plain),
            "commits": commits, "roots": len(plain["results"]),
            "events": events}


@pytest.mark.parametrize("workload,scheme,seed", CASES)
def test_history_matches_golden(workload, scheme, seed):
    golden = json.loads(GOLDEN.read_text())
    assert compute(workload, scheme, seed) == \
        golden[case_key(workload, scheme, seed)]


def test_golden_file_covers_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(
        case_key(w, s, seed) for w, s, seed in CASES)
    # The mixes are contended enough to abort and calm enough to
    # commit: a digest over an all-abort run would pin nothing.
    for key, entry in golden.items():
        assert 0 < entry["commits"] <= entry["roots"], key
    assert any(entry["commits"] < entry["roots"]
               for entry in golden.values())


def test_pinned_configurations_stay_distinct():
    """Every pair of configurations differs in at least one case's
    plain digest: a configuration that only renames another pins
    nothing new."""
    golden = json.loads(GOLDEN.read_text())
    for first, second in itertools.combinations(CONFIGS, 2):
        assert any(
            golden[case_key(w, first, seed)]["plain"]
            != golden[case_key(w, second, seed)]["plain"]
            for w in WORKLOADS for seed in SEEDS), (first, second)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: test_golden_histories.py --regen")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {case_key(w, s, seed): compute(w, s, seed)
         for w, s, seed in CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
