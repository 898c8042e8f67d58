"""Ablation: concurrency-control schemes across skew levels.

The deployment-virtualization claim extended to the CC dimension: the
same SmallBank and TPC-C new-order applications run under every
``cc_scheme`` by config edit only.  Expected shape:

* under low skew all real schemes commit almost everything and "none"
  is the (unsafe) throughput ceiling;
* as skew concentrates load on hot records, OCC pays validation
  aborts, 2PL NO_WAIT pays lock-conflict aborts (it aborts eagerly, at
  first touch), and 2PL WAIT_DIE converts part of those into
  wound/die events with the older transaction surviving;
* "none" never aborts — and the serializability audit is exactly what
  rules it out as a correctness option (see
  tests/test_integration_cc_schemes.py).
"""

from __future__ import annotations

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.deployment import shared_everything_with_affinity
from repro.experiments.common import loaded_smallbank, tpcc_database
from repro.workloads import smallbank, tpcc

SCHEMES = ("occ", "2pl_nowait", "2pl_waitdie", "none")
SKEWS = (0.0, 0.5, 0.9)  # fraction of accesses on the hot 10%
N_CUSTOMERS = 40
WORKERS = 4
TPCC_WAREHOUSES = 2

QUICK = dict(measure_us=60_000.0)


def _measure_smallbank(scheme: str, hotspot: float,
                       measure_us: float):
    database = loaded_smallbank(
        shared_everything_with_affinity(4, cc_scheme=scheme), N_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(
        N_CUSTOMERS, hotspot_fraction=hotspot)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=5_000.0, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database.abort_counts()


def _measure_tpcc(scheme: str, remote_item_prob: float,
                  measure_us: float):
    database = tpcc_database("shared-nothing-async", TPCC_WAREHOUSES,
                             mpl=4, cc_scheme=scheme)
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES, mix=tpcc.NEW_ORDER_ONLY,
        remote_item_prob=remote_item_prob, invalid_item_prob=0.0)
    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=5_000.0, measure_us=measure_us,
                             n_epochs=4)
    return result.summary, database.abort_counts()


HEADERS = ["workload/skew", "scheme", "tput [txn/s]", "lat [usec]",
           "abort %", "val fail", "lock conf", "die+wound"]


def run(schemes: tuple[str, ...] = SCHEMES,
        skews: tuple[float, ...] = SKEWS,
        measure_us: float = 60_000.0) -> dict:
    """(workload/skew label, scheme) -> (RunSummary, abort counts)."""
    measurements = {}
    for hotspot in skews:
        for scheme in schemes:
            measurements[(f"smallbank h={hotspot}", scheme)] = \
                _measure_smallbank(scheme, hotspot, measure_us)
    for remote in (0.1, 1.0):
        for scheme in schemes:
            measurements[(f"tpcc-neworder r={remote}", scheme)] = \
                _measure_tpcc(scheme, remote, measure_us)
    return measurements


def report(measurements):
    rows = []
    for (label, scheme), (summary, counts) in measurements.items():
        reasons = counts["by_reason"]
        rows.append([
            label, scheme,
            round(summary.throughput_tps, 1),
            round(summary.latency_us, 1),
            round(summary.abort_rate * 100, 2),
            reasons["validation_failure"],
            reasons["lock_conflict"],
            reasons["deadlock_avoidance"] + reasons["wound"],
        ])
    print_table(
        "Ablation: CC scheme x skew (SmallBank hotspot, TPC-C "
        "new-order remote-item probability)",
        HEADERS, rows)


def check(measurements):
    # Every (workload, scheme) combination makes progress.
    assert all(s.committed > 0 for s, __ in measurements.values())

    # Abort reasons match the scheme: "none" never aborts for CC
    # reasons (only application/safety aborts remain), OCC only fails
    # validation, 2PL only conflicts/dies/wounds.
    CC_REASONS = ("validation_failure", "lock_conflict",
                  "deadlock_avoidance", "wound")
    for (label, scheme), (__, counts) in measurements.items():
        reasons = counts["by_reason"]
        if scheme == "none":
            assert all(reasons[r] == 0 for r in CC_REASONS), (
                label, reasons)
        elif scheme == "occ":
            assert reasons["lock_conflict"] == 0
            assert reasons["deadlock_avoidance"] == 0
        elif scheme.startswith("2pl"):
            assert reasons["validation_failure"] == 0
        if scheme == "2pl_nowait":
            assert reasons["wound"] == 0

    # Skew hurts: the hottest SmallBank setting aborts at least as
    # much as the uniform one for every real scheme.
    for scheme in ("occ", "2pl_nowait", "2pl_waitdie"):
        cold = measurements[("smallbank h=0.0", scheme)][0]
        hot = measurements[("smallbank h=0.9", scheme)][0]
        assert hot.abort_rate >= cold.abort_rate
