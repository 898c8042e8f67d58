"""Ablation: durability mode x workload, flush sweep, recovery curve.

The persistence knob of the deployment spectrum, measured:

* **mode x workload** — SmallBank (standard mix) and TPC-C new-order
  under ``sync`` / ``group`` / ``async`` durability.  Sync
  force-at-commit serializes every writing commit on the container's
  log device (throughput caps near ``1/fsync_cost``); epoch-based
  group commit amortizes one fsync over every commit of the epoch and
  recovers most of async's throughput while never acknowledging an
  unflushed commit.  The acceptance gate asserts group >= 1.3x sync at
  the default operating point.
* **flush-interval sweep** — group commit across
  ``flush_interval_us`` settings: longer epochs -> fewer fsyncs per
  commit but higher commit latency.
* **recovery-time curve** — virtual-time recovery cost after a
  kill-at-arbitrary-epoch crash, as a function of the incremental
  checkpoint cadence, with parallel (per-reactor partitioned) vs
  serial replay; every crash image is certified by
  ``certify_crash_recovery`` (and a tampered image is rejected).

``QUICK`` is the size CI checks; there ``check`` also holds every run
row's ``throughput_tps`` to ``QUICK_TPS``.
"""

from __future__ import annotations

from dataclasses import replace

from repro import DurabilityConfig
from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.durability import recover
from repro.durability.wal import RedoRecord, unseal
from repro.errors import TransactionAbort
from repro.experiments.common import (
    check_quick_tps,
    loaded_smallbank,
    summary_payload,
    tpcc_database,
)
from repro.formal import certify_crash_recovery
from repro.sim.machine import XEON_E3_1276, MachineProfile
from repro.workloads import smallbank, tpcc

MODES = ("sync", "group", "async")
FLUSH_INTERVALS = (10.0, 50.0, 200.0)
CHECKPOINT_CADENCE = (0, 100, 35)  # txns per checkpoint; 0 = never
N_CUSTOMERS = 40
SB_WORKERS = 8
TPCC_WORKERS = 16
TPCC_WAREHOUSES = 2

QUICK = dict(measure_us=10_000.0, curve_txns=120)

#: Each run row's ``throughput_tps`` at ``QUICK``, by ``row_key``.
QUICK_TPS = {
    "workload=smallbank mode=sync": 41500.0,
    "workload=smallbank mode=group": 117500.0,
    "workload=smallbank mode=async": 383000.0,
    "workload=tpcc-neworder mode=sync": 33300.0,
    "workload=tpcc-neworder mode=group": 44400.0,
    "workload=tpcc-neworder mode=async": 45400.0,
    "workload=smallbank mode=group flush_interval_us=10.0": 55100.0,
    "workload=smallbank mode=group flush_interval_us=50.0": 117500.0,
    "workload=smallbank mode=group flush_interval_us=200.0": 41700.0,
}


def _durable(mode: str) -> DurabilityConfig:
    return DurabilityConfig(enabled=True, mode=mode)


def _machine(flush_interval_us: float | None = None) -> MachineProfile:
    if flush_interval_us is None:
        return XEON_E3_1276
    return MachineProfile(
        name=XEON_E3_1276.name,
        hardware_threads=XEON_E3_1276.hardware_threads,
        costs=replace(XEON_E3_1276.costs,
                      flush_interval_us=flush_interval_us))


def _measure_smallbank(mode: str, measure_us: float,
                       flush_interval_us: float | None = None):
    deployment = shared_everything_with_affinity(
        4, machine=_machine(flush_interval_us),
        durability=_durable(mode))
    database = loaded_smallbank(deployment, N_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(N_CUSTOMERS)
    result = run_measurement(database, SB_WORKERS,
                             workload.factory_for,
                             warmup_us=5_000.0, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database


def _measure_tpcc(mode: str, measure_us: float):
    database = tpcc_database(
        "shared-everything-with-affinity", TPCC_WAREHOUSES,
        machine=XEON_E3_1276, mpl=8, n_executors=4,
        durability=_durable(mode))
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES, mix=tpcc.NEW_ORDER_ONLY,
        remote_item_prob=0.1, invalid_item_prob=0.0)
    result = run_measurement(database, TPCC_WORKERS,
                             workload.factory_for,
                             warmup_us=5_000.0, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database


def _flush_summary(database) -> dict:
    stats = database.durability_stats()
    flushers = stats["flushers"].values()
    fsyncs = sum(f["fsyncs"] for f in flushers)
    records = sum(f["records_flushed"] for f in flushers)
    return {
        "fsyncs": fsyncs,
        "records_flushed": records,
        "records_per_fsync": round(records / fsyncs, 3)
        if fsyncs else 0.0,
        "acked_commits": stats["acked_commits"],
    }


def _tamper(image) -> bool:
    """Add 1e9 to the first float column of the first logged row that
    has one; False when no logged row does."""
    for records in image.logs.values():
        for index, sealed in enumerate(records):
            record = unseal(sealed)
            for j, entry in enumerate(record.entries):
                key = next((k for k, v in (entry.row or {}).items()
                            if isinstance(v, float)), None)
                if key is not None:
                    entries = list(record.entries)
                    entries[j] = entry._replace(
                        row={**entry.row, key: entry.row[key] + 1e9})
                    records[index] = RedoRecord(
                        record.commit_tid, tuple(entries)).sealed
                    return True
    return False


def _certify_crash(database, mode: str) -> dict:
    """Kill the measured database where it stands (mid-epoch by
    construction: measurement leaves in-flight work), recover
    partitioned, certify — and check a tampered image is rejected."""
    image = database.durability.crash()
    report = recover(
        database.deployment, smallbank.declarations(N_CUSTOMERS)
        if "cust0" in database else tpcc.declarations(TPCC_WAREHOUSES),
        image.manifest, image.to_logs())
    cert = certify_crash_recovery(database, image, report.database)

    tampered = database.durability.crash()
    rejected = (not certify_crash_recovery(database, tampered, None)["ok"]
                if _tamper(tampered) else None)
    return {
        "cert_ok": cert["ok"],
        "zero_acked_loss": cert["zero_acked_loss"],
        "state_ok": cert["state_ok"],
        "lost_acked": len(cert["lost_acked"]),
        "acked_checked": cert["acked_checked"],
        "tamper_rejected": rejected,
        "recovery_us": round(report.recovery_us, 3),
    }


def _recovery_curve(checkpoint_every: int, total_txns: int) -> dict:
    """Run a deterministic transfer stream with periodic incremental
    checkpoints, crash mid-epoch, and price recovery both ways."""
    import random

    deployment = shared_nothing(4, durability=_durable("group"))
    database = loaded_smallbank(deployment, N_CUSTOMERS)
    rng = random.Random(17)
    checkpoints = 0

    def one_transfer(i: int) -> None:
        variant = smallbank.VARIANTS[i % len(smallbank.VARIANTS)]
        src = smallbank.reactor_name(rng.randrange(N_CUSTOMERS))
        dst = smallbank.reactor_name(
            (int(src[4:]) + 1 + rng.randrange(N_CUSTOMERS - 1))
            % N_CUSTOMERS)
        reactor, proc, args = smallbank.multi_transfer_spec(
            variant, src, [dst], 2.0)
        try:
            database.run(reactor, proc, *args)
        except TransactionAbort:
            pass

    for i in range(total_txns):
        one_transfer(i)
        if checkpoint_every and (i + 1) % checkpoint_every == 0:
            database.durability.incremental_checkpoint()
            checkpoints += 1
    # An uncheckpointed tail every cadence replays at recovery, then a
    # crash with an epoch in flight.
    for i in range(max(8, total_txns // 10)):
        one_transfer(total_txns + i)
    for i in range(4):
        database.submit(smallbank.reactor_name(i), "deposit_checking",
                        1.0)
    database.scheduler.run(until=database.scheduler.now + 60.0)
    image = database.durability.crash()
    parallel = recover(
        deployment, smallbank.declarations(N_CUSTOMERS),
        image.manifest, image.to_logs())
    serial = recover(
        deployment, smallbank.declarations(N_CUSTOMERS),
        image.manifest, image.to_logs(), parallel=False)
    cert = certify_crash_recovery(database, image, parallel.database)
    return {
        "checkpoint_every": checkpoint_every,
        "checkpoints": checkpoints,
        "entries_replayed": parallel.entries_replayed,
        "rows_loaded": parallel.rows_loaded,
        "parallel_recovery_us": round(parallel.recovery_us, 3),
        "serial_recovery_us": round(serial.recovery_us, 3),
        "parallel_speedup": round(
            serial.recovery_us / max(parallel.recovery_us, 1e-9), 3),
        "cert_ok": cert["ok"],
    }


def run(measure_us: float = 60_000.0, curve_txns: int = 240) -> dict:
    """The full grid; returns the machine-readable payload."""
    runs = []

    def record(workload: str, mode: str, summary, database,
               **extra):
        row = {
            "workload": workload,
            "mode": mode,
            **summary_payload(summary),
            **_flush_summary(database),
            **extra,
        }
        runs.append(row)
        return row

    by_mode_sb = {}
    for mode in MODES:
        summary, database = _measure_smallbank(mode, measure_us)
        crash = _certify_crash(database, mode)
        by_mode_sb[mode] = record("smallbank", mode, summary,
                                  database, **crash)
    by_mode_tpcc = {}
    for mode in MODES:
        summary, database = _measure_tpcc(mode, measure_us)
        by_mode_tpcc[mode] = record("tpcc-neworder", mode, summary,
                                    database)

    flush_sweep = []
    for interval in FLUSH_INTERVALS:
        summary, database = _measure_smallbank(
            "group", measure_us, flush_interval_us=interval)
        row = record("smallbank", "group", summary, database,
                     flush_interval_us=interval)
        flush_sweep.append(row)

    curve = [_recovery_curve(every, curve_txns)
             for every in CHECKPOINT_CADENCE]

    return {
        "runs": runs,
        "recovery_curve": curve,
        "group_over_sync_smallbank": round(
            by_mode_sb["group"]["throughput_tps"]
            / max(by_mode_sb["sync"]["throughput_tps"], 1e-9), 4),
        "group_over_sync_tpcc": round(
            by_mode_tpcc["group"]["throughput_tps"]
            / max(by_mode_tpcc["sync"]["throughput_tps"], 1e-9), 4),
        "crash_certified": all(
            row["cert_ok"] and row["zero_acked_loss"]
            for mode, row in by_mode_sb.items() if mode != "async"),
        "tamper_rejected": all(
            row["tamper_rejected"] for row in by_mode_sb.values()),
        "params": {"measure_us": measure_us, "curve_txns": curve_txns},
    }


HEADERS = ["workload", "mode", "tput [txn/s]", "lat [usec]",
           "p99 [usec]", "fsyncs", "rec/fsync", "cert"]


def report(payload):
    rows = [[run["workload"],
             run["mode"] + (f" @{run['flush_interval_us']:g}us"
                            if "flush_interval_us" in run else ""),
             round(run["throughput_tps"], 1), round(run["latency_us"], 1),
             round(run["p99_us"], 1), run["fsyncs"],
             run["records_per_fsync"], run.get("cert_ok", "-")]
            for run in payload["runs"]]
    print_table(
        "Ablation: durability mode (sync/group/async) on SmallBank "
        "and TPC-C new-order, plus group-commit flush-interval sweep",
        HEADERS, rows)
    print(f"group-commit speedup over sync: "
          f"{payload['group_over_sync_smallbank']:.2f}x (SmallBank), "
          f"{payload['group_over_sync_tpcc']:.2f}x (TPC-C)")
    print("recovery-time curve (checkpoint cadence -> virtual us):")
    for row in payload["recovery_curve"]:
        every = row["checkpoint_every"] or "never"
        print(f"  ckpt every {every:>5} txns: "
              f"tail {row['entries_replayed']:>4} entries, "
              f"parallel {row['parallel_recovery_us']:>9.1f}us, "
              f"serial {row['serial_recovery_us']:>9.1f}us "
              f"({row['parallel_speedup']:.2f}x), "
              f"cert={row['cert_ok']}")
    print(f"crash certified: {payload['crash_certified']}; "
          f"tampered image rejected: {payload['tamper_rejected']}")


def check(payload):
    """Acceptance conditions; they hold at the default and at the
    ``QUICK`` sizes."""
    # Every configuration makes progress.
    assert all(r["committed"] > 0 for r in payload["runs"])
    # Group commit amortizes: strictly fewer fsyncs than records on
    # the batched runs, 1:1 under sync.
    for run in payload["runs"]:
        if run["mode"] == "sync":
            assert run["fsyncs"] == run["records_flushed"]
        elif run["mode"] == "group" and run["records_flushed"]:
            assert run["records_per_fsync"] > 1.0
    # Acceptance: group >= 1.3x sync at the default operating point,
    # and TPC-C agrees on the direction.
    assert payload["group_over_sync_smallbank"] >= 1.3
    assert payload["group_over_sync_tpcc"] > 1.0
    # Recovery curve: frequent checkpoints shrink the replayed tail
    # and the recovery makespan; partitioned replay beats serial.
    curve = {row["checkpoint_every"]: row
             for row in payload["recovery_curve"]}
    never, frequent = curve[0], curve[CHECKPOINT_CADENCE[-1]]
    assert frequent["entries_replayed"] < never["entries_replayed"]
    assert frequent["parallel_recovery_us"] < \
        never["parallel_recovery_us"]
    for row in payload["recovery_curve"]:
        assert row["parallel_recovery_us"] < \
            row["serial_recovery_us"]
        assert row["cert_ok"]
    # Crash-recovery certification accepted every kill point and
    # rejected the tampered image.
    assert payload["crash_certified"]
    assert payload["tamper_rejected"]

    check_quick_tps(payload, QUICK, QUICK_TPS)
