"""Ablation: replication mode x skew, read-replica routing, failover.

The availability knob of the deployment spectrum, measured:

* **mode x skew** — SmallBank (standard mix, hotspot skew) and TPC-C
  new-order (remote-item probability) under ``none`` / ``async`` /
  ``sync`` replication.  Sync pays the ack round-trip on every writing
  commit; async hides it behind a bounded apply lag; both leave the
  abort profile of the CC scheme unchanged.
* **read-replica routing** — a read-heavy SmallBank mix (80% Balance)
  on a single-copy deployment vs. the same deployment with one replica
  per container and ``read_from_replicas``: Balance roots move to the
  replica's cores, write throughput keeps the primary, total
  throughput rises.
* **kill-primary failover** — a sync-replicated shared-nothing run
  with a mid-measurement crash of container 0 and immediate promotion:
  the formal audit certifies the promoted replica as prefix-consistent
  with zero acknowledged-commit loss while throughput recovers.

``QUICK`` is the size CI checks; there ``check`` also holds every run
row's ``throughput_tps`` to ``QUICK_TPS``.
"""

from __future__ import annotations

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.experiments.common import (
    check_quick_tps,
    loaded_smallbank,
    summary_payload,
    tpcc_database,
)
from repro.formal.audit import certify_replication
from repro.replication import ReplicationConfig
from repro.workloads import smallbank, tpcc

MODES = ("none", "async", "sync")
SKEWS = (0.0, 0.9)
N_CUSTOMERS = 40
WORKERS = 4
TPCC_WAREHOUSES = 2

QUICK = dict(measure_us=10_000.0, warmup_us=5_000.0)

#: Each run row's ``throughput_tps`` at ``QUICK``, by ``row_key``.
QUICK_TPS = {
    "workload=smallbank mode=none skew=0.0": 240600.0,
    "workload=smallbank mode=async skew=0.0": 240600.0,
    "workload=smallbank mode=sync skew=0.0": 204000.0,
    "workload=smallbank mode=none skew=0.9": 232900.0,
    "workload=smallbank mode=async skew=0.9": 232900.0,
    "workload=smallbank mode=sync skew=0.9": 200800.0,
    "workload=tpcc-neworder mode=none skew=0.1": 22100.0,
    "workload=tpcc-neworder mode=async skew=0.1": 22100.0,
    "workload=tpcc-neworder mode=sync skew=0.1": 21700.0,
    "workload=tpcc-neworder mode=none skew=1.0": 20300.0,
    "workload=tpcc-neworder mode=async skew=1.0": 20300.0,
    "workload=tpcc-neworder mode=sync skew=1.0": 19300.0,
    "workload=smallbank-readheavy mode=none skew=0.0 read_from_replicas=False":
        372000.0,
    "workload=smallbank-readheavy mode=async skew=0.0 read_from_replicas=True":
        447100.0,
    "workload=smallbank-failover mode=sync skew=0.0": 170200.0,
}


def _replication(mode: str,
                 read_from_replicas: bool = False
                 ) -> ReplicationConfig | None:
    if mode == "none":
        return None
    return ReplicationConfig(replicas_per_container=1, mode=mode,
                             read_from_replicas=read_from_replicas,
                             async_lag_us=100.0)


def _measure_smallbank(mode: str, hotspot: float, *,
                       mix=smallbank.STANDARD_MIX,
                       read_from_replicas: bool = False,
                       n_executors: int = 4,
                       workers: int = WORKERS,
                       measure_us: float = 60_000.0,
                       warmup_us: float = 5_000.0):
    deployment = shared_everything_with_affinity(
        n_executors,
        replication=_replication(mode, read_from_replicas))
    database = loaded_smallbank(deployment, N_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(
        N_CUSTOMERS, mix=mix, hotspot_fraction=hotspot)
    result = run_measurement(database, workers, workload.factory_for,
                             warmup_us=warmup_us, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database


def _measure_tpcc(mode: str, remote_item_prob: float,
                  measure_us: float = 60_000.0,
                  warmup_us: float = 5_000.0):
    database = tpcc_database("shared-nothing-async", TPCC_WAREHOUSES,
                             mpl=4, replication=_replication(mode))
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES, mix=tpcc.NEW_ORDER_ONLY,
        remote_item_prob=remote_item_prob, invalid_item_prob=0.0)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=warmup_us, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database


def _measure_failover(mode: str = "sync",
                      measure_us: float = 60_000.0,
                      warmup_us: float = 5_000.0):
    """Kill container 0 mid-measurement and promote its replica."""
    n_customers = 16
    database = loaded_smallbank(
        shared_nothing(2, replication=_replication(mode)), n_customers)
    workload = smallbank.SmallbankWorkload(n_customers)
    kill_at = warmup_us + measure_us / 2
    database.scheduler.at(kill_at,
                          database.replication.kill_and_promote, 0)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=warmup_us, measure_us=measure_us,
                             n_epochs=4)
    audit = certify_replication(database)
    return result.summary, database, audit


def _replication_counters(database) -> dict:
    """What ``report`` and ``check`` read of one run's replication,
    from the metrics registry (0 on a single-copy run)."""
    value = database.telemetry.registry.value
    lag = value("replication_lag_us")
    lag_mean = lag["sum"] / lag["count"] if lag and lag["count"] else 0.0
    return {
        "records_shipped": value("replication_records_shipped_total"),
        "records_applied": value("replication_records_applied_total"),
        "acked_records": value("replication_acked_records_total"),
        "lag_mean_us": round(lag_mean, 3),
    }


def run(measure_us: float = 60_000.0,
        warmup_us: float = 5_000.0) -> dict:
    """The full grid; returns the machine-readable payload."""
    runs = []

    def record(workload: str, mode: str, skew, summary, database,
               **extra):
        row = {
            "workload": workload,
            "mode": mode,
            "skew": skew,
            **summary_payload(summary),
            "replication": _replication_counters(database),
            **extra,
        }
        runs.append(row)
        return row

    for hotspot in SKEWS:
        for mode in MODES:
            summary, database = _measure_smallbank(
                mode, hotspot, measure_us=measure_us,
                warmup_us=warmup_us)
            record("smallbank", mode, hotspot, summary, database)
    for remote in (0.1, 1.0):
        for mode in MODES:
            summary, database = _measure_tpcc(
                mode, remote, measure_us=measure_us,
                warmup_us=warmup_us)
            record("tpcc-neworder", mode, remote, summary, database)

    # Read-replica routing: single copy vs replicated read routing on
    # the read-heavy mix (the acceptance comparison).
    base_summary, base_db = _measure_smallbank(
        "none", 0.0, mix=smallbank.READ_HEAVY_MIX, n_executors=2,
        workers=8, measure_us=measure_us, warmup_us=warmup_us)
    base_row = record("smallbank-readheavy", "none", 0.0,
                      base_summary, base_db, read_from_replicas=False)
    repl_summary, repl_db = _measure_smallbank(
        "async", 0.0, mix=smallbank.READ_HEAVY_MIX,
        read_from_replicas=True, n_executors=2, workers=8,
        measure_us=measure_us, warmup_us=warmup_us)
    repl_row = record("smallbank-readheavy", "async", 0.0,
                      repl_summary, repl_db, read_from_replicas=True)

    # Failover: kill the primary of container 0 mid-run, promote.
    fo_summary, fo_db, fo_audit = _measure_failover(
        measure_us=measure_us, warmup_us=warmup_us)
    record("smallbank-failover", "sync", 0.0, fo_summary, fo_db,
           audit_ok=fo_audit["ok"],
           failovers=fo_audit["failovers"])

    return {
        "runs": runs,
        "read_replica_speedup": round(
            repl_row["throughput_tps"]
            / max(base_row["throughput_tps"], 1e-9), 4),
        "failover_audit_ok": fo_audit["ok"],
        "failover_zero_committed_loss": all(
            f["zero_committed_loss"] for f in fo_audit["failovers"]),
        "params": {"measure_us": measure_us, "warmup_us": warmup_us},
    }


HEADERS = ["workload/skew", "mode", "tput [txn/s]", "lat [usec]",
           "abort %", "p99 [usec]", "repl lag [usec]", "acked"]


def report(payload):
    rows = [[f"{run['workload']} s={run['skew']}", run["mode"],
             round(run["throughput_tps"], 1), round(run["latency_us"], 1),
             round(run["abort_rate"] * 100, 2), round(run["p99_us"], 1),
             run["replication"]["lag_mean_us"],
             run["replication"]["acked_records"]]
            for run in payload["runs"]]
    print_table(
        "Ablation: replication mode x skew (SmallBank, TPC-C "
        "new-order), read-replica routing, kill-primary failover",
        HEADERS, rows)
    print(f"read-replica speedup over single-copy: "
          f"{payload['read_replica_speedup']:.3f}x")
    print(f"failover audit ok: {payload['failover_audit_ok']}; "
          f"zero committed loss: "
          f"{payload['failover_zero_committed_loss']}")


def check(payload):
    """Acceptance conditions; they hold at the default and at the
    ``QUICK`` sizes."""
    by_key = {(r["workload"], r["mode"], r["skew"]): r
              for r in payload["runs"]}

    # Every configuration makes progress.
    assert all(r["committed"] > 0 for r in payload["runs"])

    # Sync pays for acks: per-commit latency is strictly above the
    # unreplicated baseline on the write-heavy TPC-C runs.
    for remote in (0.1, 1.0):
        none = by_key[("tpcc-neworder", "none", remote)]
        sync = by_key[("tpcc-neworder", "sync", remote)]
        assert sync["latency_us"] > none["latency_us"]

    # Replicas see every shipped record (no lag backlog at drain).
    for run in payload["runs"]:
        repl = run["replication"]
        if run["mode"] != "none" and not run.get("failovers"):
            assert repl["records_applied"] == repl["records_shipped"]

    # Acceptance: read routing beats single-copy on the read-heavy
    # mix, and the mid-run failover certifies with zero loss.
    assert payload["read_replica_speedup"] > 1.05
    assert payload["failover_audit_ok"]
    assert payload["failover_zero_committed_loss"]

    check_quick_tps(payload, QUICK, QUICK_TPS)
