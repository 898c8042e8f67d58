"""Ablation: multi-version snapshot reads vs validated reads.

The storage-engine knob of the deployment spectrum, measured:

* **read-heavy YCSB x skew** — ``multi_read``/``multi_update`` over
  zipfian keys on the paper's shared-nothing YCSB deployment (range-
  placed keys, pinned reactors).  Read-only roots span a wide hot-key
  read set, so under ``occ`` they validate long read sets against
  concurrent writers and abort; under ``occ+snapshot_reads`` (OCC
  with the deployment's ``snapshot_reads`` switch on) they pin a
  begin-TID snapshot, never validate, and never abort.  The acceptance
  point is the read-heavy high-skew cell: snapshot reads must beat
  plain occ by >= 1.3x with zero read-only aborts.

* **SmallBank balance-checks x skew** — the read-heavy Balance mix
  with a hotspot, across occ / 2pl_nowait / occ+snapshot_reads (2PL
  included: its readers pay lock conflicts that snapshots also
  remove).

* **certification** — every snapshot run in the grid runs under a
  history recorder: its snapshot reads pass ``certify_snapshot_isolation``
  (no future reads, newest-at-snapshot, one snapshot per root) and,
  with the writers, one serializability check; an injected stale-read
  tamper must be rejected.

``QUICK`` is the size CI checks; there ``check`` also holds every run
row's ``throughput_tps`` to ``QUICK_TPS``.
"""

from __future__ import annotations

import dataclasses

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.experiments.common import (
    cc_config,
    check_quick_tps,
    summary_payload,
)
from repro.formal.audit import attach_recorder, certify_snapshot_isolation
from repro.workloads import smallbank, ycsb

#: Configuration labels: a ``cc_scheme`` name, optionally suffixed
#: ``+snapshot_reads``.
SNAPSHOT = "occ+snapshot_reads"
SCHEMES = ("occ", "2pl_nowait", SNAPSHOT)
YCSB_SKEWS = (0.6, 0.9)
YCSB_KEYS = 64
YCSB_CONTAINERS = 4
READ_FRACTION = 0.8
READ_SPAN = 20
WORKERS = 16
SB_CUSTOMERS = 40
SB_HOTSPOTS = (0.0, 0.9)

QUICK = dict(measure_us=10_000.0, warmup_us=5_000.0)

#: Each run row's ``throughput_tps`` at ``QUICK``, by ``row_key``.
QUICK_TPS = {
    "workload=ycsb-readheavy scheme=occ skew=0.6": 31800.0,
    "workload=ycsb-readheavy scheme=2pl_nowait skew=0.6": 37100.0,
    "workload=ycsb-readheavy scheme=occ+snapshot_reads skew=0.6": 53500.0,
    "workload=ycsb-readheavy scheme=occ skew=0.9": 39100.0,
    "workload=ycsb-readheavy scheme=2pl_nowait skew=0.9": 39700.0,
    "workload=ycsb-readheavy scheme=occ+snapshot_reads skew=0.9": 58800.0,
    "workload=smallbank-balance scheme=occ skew=0.0": 702900.0,
    "workload=smallbank-balance scheme=2pl_nowait skew=0.0": 702900.0,
    "workload=smallbank-balance scheme=occ+snapshot_reads skew=0.0": 717400.0,
    "workload=smallbank-balance scheme=occ skew=0.9": 706000.0,
    "workload=smallbank-balance scheme=2pl_nowait skew=0.9": 706000.0,
    "workload=smallbank-balance scheme=occ+snapshot_reads skew=0.9": 720300.0,
}


def _measure_ycsb(scheme: str, theta: float, measure_us: float,
                  warmup_us: float, audit: bool = False):
    deployment = shared_nothing(
        YCSB_CONTAINERS, mpl=4, **cc_config(scheme),
        placement=RangePlacement(YCSB_KEYS // YCSB_CONTAINERS))
    decls = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(YCSB_KEYS)]
    database = ReactorDatabase(deployment, decls)
    recorder = attach_recorder(database) if audit else None
    for i in range(YCSB_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv",
                      [{"key": name, "value": "x" * ycsb.RECORD_SIZE}])
    workload = ycsb.YcsbWorkload(
        1, theta=theta, n_containers=YCSB_CONTAINERS, n_keys=YCSB_KEYS,
        read_fraction=READ_FRACTION, read_keys_per_txn=READ_SPAN)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=warmup_us, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database, recorder


def _measure_smallbank(scheme: str, hotspot: float, measure_us: float,
                       warmup_us: float, audit: bool = False):
    database = ReactorDatabase(
        shared_nothing(4, mpl=4, **cc_config(scheme)),
        smallbank.declarations(SB_CUSTOMERS))
    recorder = attach_recorder(database) if audit else None
    smallbank.load(database, SB_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(
        SB_CUSTOMERS, mix=smallbank.READ_HEAVY_MIX,
        hotspot_fraction=hotspot)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=warmup_us, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database, recorder


def _certify(recorder) -> dict:
    report = certify_snapshot_isolation(recorder)
    serializable = recorder.is_serializable()
    return {
        "ok": report["ok"] and serializable,
        "serializable": serializable,
        "reads_checked": report["reads_checked"],
        "roots_checked": report["roots_checked"],
        "violations": len(report["violations"]),
    }


def _tamper_rejected(recorder) -> bool:
    """Nudge one recorded snapshot read below the version it observed
    (a stale read) and check the certificate refuses it."""
    events = recorder.history.events
    idx = next((i for i, e in enumerate(events)
                if getattr(e, "snapshot", None) is not None
                and e.tid > 0), None)
    if idx is None:
        return False
    events[idx] = dataclasses.replace(events[idx],
                                      tid=events[idx].tid - 1)
    return not certify_snapshot_isolation(recorder)["ok"]


def run(measure_us: float = 40_000.0,
        warmup_us: float = 5_000.0) -> dict:
    """The full grid; returns the machine-readable payload."""
    runs = []
    tamper_rejections = []

    def record(workload: str, scheme: str, skew, summary, database,
               recorder):
        row = {
            "workload": workload,
            "scheme": scheme,
            "skew": skew,
            **summary_payload(summary),
            "version_stats": database.version_stats(),
        }
        if recorder is not None:
            row["snapshot_certificate"] = _certify(recorder)
            tamper_rejections.append(_tamper_rejected(recorder))
        runs.append(row)
        return row

    by_key = {}
    for theta in YCSB_SKEWS:
        for scheme in SCHEMES:
            by_key[("ycsb", scheme, theta)] = record(
                "ycsb-readheavy", scheme, theta, *_measure_ycsb(
                    scheme, theta, measure_us, warmup_us,
                    audit=scheme == SNAPSHOT))
    for hotspot in SB_HOTSPOTS:
        for scheme in SCHEMES:
            by_key[("smallbank", scheme, hotspot)] = record(
                "smallbank-balance", scheme, hotspot,
                *_measure_smallbank(scheme, hotspot, measure_us,
                                    warmup_us,
                                    audit=scheme == SNAPSHOT))

    high = max(YCSB_SKEWS)
    speedup = (by_key[("ycsb", SNAPSHOT, high)]["throughput_tps"]
               / max(by_key[("ycsb", "occ", high)]["throughput_tps"],
                     1e-9))
    snapshot_runs = [r for r in runs if r["scheme"] == SNAPSHOT]
    return {
        "runs": runs,
        "snapshot_speedup_highskew": round(speedup, 4),
        "snapshot_read_only_aborts": sum(
            r["version_stats"]["read_only_aborts"]
            for r in snapshot_runs),
        "snapshot_certificates_ok": all(
            r["snapshot_certificate"]["ok"] for r in snapshot_runs),
        "tamper_rejected": bool(tamper_rejections)
        and all(tamper_rejections),
        "params": {"measure_us": measure_us, "warmup_us": warmup_us},
    }


HEADERS = ["workload/skew", "scheme", "tput [txn/s]", "abort %",
           "p99 [usec]", "snap roots", "ro aborts", "live vers",
           "gc vers"]


def report(payload):
    rows = [[f"{run['workload']} s={run['skew']}", run["scheme"],
             round(run["throughput_tps"], 1),
             round(run["abort_rate"] * 100, 2), round(run["p99_us"], 1),
             *(run["version_stats"][stat] for stat in (
                 "snapshot_roots", "read_only_aborts", "live_versions",
                 "gc_versions"))]
            for run in payload["runs"]]
    print_table(
        "Ablation: multi-version snapshot reads (read-heavy YCSB + "
        "SmallBank balance-checks, snapshot reads vs occ/2pl across "
        "skew)",
        HEADERS, rows)
    print(f"snapshot-read speedup over occ (read-heavy, high skew): "
          f"{payload['snapshot_speedup_highskew']:.3f}x")
    print(f"snapshot read-only aborts: "
          f"{payload['snapshot_read_only_aborts']}")
    print(f"snapshot certificates ok: "
          f"{payload['snapshot_certificates_ok']}; stale-read tamper "
          f"rejected: {payload['tamper_rejected']}")


def check(payload):
    """Acceptance conditions; they hold at the default and at the
    ``QUICK`` sizes."""
    # Every configuration makes progress.
    assert all(r["committed"] > 0 for r in payload["runs"])

    # Snapshot readers never abort, and every snapshot run certifies;
    # tampered histories are rejected.
    assert payload["snapshot_read_only_aborts"] == 0
    assert payload["snapshot_certificates_ok"]
    assert payload["tamper_rejected"]

    # Acceptance: abort-free snapshot reads beat validated reads on
    # the read-heavy high-skew YCSB point.
    assert payload["snapshot_speedup_highskew"] >= 1.3

    check_quick_tps(payload, QUICK, QUICK_TPS)
