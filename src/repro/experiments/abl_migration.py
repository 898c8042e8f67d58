"""Ablation: online reactor migration & elastic rebalancing.

The elasticity knob of the deployment spectrum, measured on a
skew-shifted SmallBank workload over a shared-nothing deployment:

* **frozen vs. elastic placement** — the workload starts uniform, then
  shifts to a hotspot on the first 10% of customers (all homed, by
  range placement, in container 0).  With placement frozen the hot
  container bottlenecks; with a ``db.rebalance()`` call after the
  shift the hot reactors migrate apart and throughput recovers.  The
  acceptance criterion asserts a >= 1.2x recovery in the post-
  rebalance window.
* **migration certification under every CC scheme** — smaller
  contended runs with two live migrations mid-measurement, under
  ``occ`` / ``2pl_nowait`` / ``2pl_waitdie``: the recorded operation
  history (which spans the migrations — the successor is aliased to
  the same formal reactor) must stay conflict-serializable, and
  :func:`repro.formal.audit.certify_migration` must certify routing,
  source quiescence, and state-replay equivalence.

``QUICK`` is the size CI checks; there ``check`` also holds both
placements' ``throughput_tps`` to ``QUICK_TPS``.
"""

from __future__ import annotations

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.deployment import RangePlacement, shared_nothing
from repro.experiments.common import (
    check_quick_tps,
    loaded_smallbank,
    summary_payload,
)
from repro.formal.audit import attach_recorder, certify_migration
from repro.workloads import smallbank

N_CUSTOMERS = 40
CONTAINERS = 4
WORKERS = 8
HOTSPOT = 0.9
WARMUP_US = 4_000.0
MEASURE_US = 120_000.0
CC_SCHEMES = ("occ", "2pl_nowait", "2pl_waitdie")

QUICK = dict(measure_us=30_000.0)

#: Each run row's ``throughput_tps`` at ``QUICK``, by ``row_key``.
QUICK_TPS = {
    "placement=frozen": 204566.667,
    "placement=elastic": 257266.667,
}


def _window_tput(raw_stats, start_us: float, end_us: float) -> float:
    """Committed throughput (txn/s) over an absolute window."""
    committed = sum(1 for s in raw_stats
                    if s.committed and start_us <= s.end < end_us)
    return committed / ((end_us - start_us) / 1e6)


def _run_skew_shift(elastic: bool, measure_us: float):
    """One skew-shifted run; placement frozen or rebalanced."""
    block = N_CUSTOMERS // CONTAINERS
    deployment = shared_nothing(CONTAINERS, mpl=4,
                                placement=RangePlacement(block))
    database = loaded_smallbank(deployment, N_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(
        N_CUSTOMERS, mix=smallbank.STANDARD_MIX, hotspot_fraction=0.0)

    shift_at = WARMUP_US + measure_us / 3
    rebalance_at = shift_at + measure_us / 6
    recovery_start = rebalance_at + measure_us / 12
    end = WARMUP_US + measure_us
    scheduler = database.scheduler

    def shift() -> None:
        workload.hotspot_fraction = HOTSPOT
        # Rebalancing should react to the *shifted* load, not to the
        # uniform history before it.
        database.migration.reset_load_window()

    scheduler.at(shift_at, shift)
    if elastic:
        scheduler.at(rebalance_at, database.rebalance)

    result = run_measurement(database, WORKERS, workload.factory_for,
                             warmup_us=WARMUP_US,
                             measure_us=measure_us, n_epochs=6)
    recovery_tput = _window_tput(result.raw_stats, recovery_start, end)
    value = database.telemetry.registry.value
    return {
        "placement": "elastic" if elastic else "frozen",
        **summary_payload(result.summary),
        "recovery_window_tput_tps": round(recovery_tput, 3),
        "migration": {
            "completed": value("migration_completed_total"),
            "rows_copied": value("migration_rows_copied_total"),
        },
    }


def _certify_scheme(scheme: str, measure_us: float):
    """Two live migrations under a contended mix; audit the history."""
    n = 12
    database = loaded_smallbank(
        shared_nothing(3, mpl=4, cc_scheme=scheme,
                       placement=RangePlacement(4)), n)
    recorder = attach_recorder(database)
    workload = smallbank.SmallbankWorkload(n, hotspot_fraction=0.5)
    scheduler = database.scheduler
    scheduler.at(WARMUP_US + measure_us / 3,
                 database.migrate, "cust0", 1)
    scheduler.at(WARMUP_US + 2 * measure_us / 3,
                 database.migrate, "cust1", 2)
    result = run_measurement(database, 4, workload.factory_for,
                             warmup_us=WARMUP_US,
                             measure_us=measure_us, n_epochs=4)
    migration_report = certify_migration(database)
    return {
        "scheme": scheme,
        "committed": result.summary.committed,
        "migrations_completed": database.telemetry.registry.value(
            "migration_completed_total"),
        "serializable": recorder.is_serializable(),
        "migration_cert_ok": migration_report["ok"],
    }


def run(measure_us: float = MEASURE_US) -> dict:
    """The full grid; returns the machine-readable payload."""
    frozen = _run_skew_shift(elastic=False, measure_us=measure_us)
    elastic = _run_skew_shift(elastic=True, measure_us=measure_us)
    recovery_ratio = (elastic["recovery_window_tput_tps"]
                      / max(frozen["recovery_window_tput_tps"], 1e-9))
    # The certification window stays short regardless of the
    # throughput window: the serializability check is quadratic in
    # recorded operations, and certification needs contended
    # transactions spanning the migrations, not a long measurement.
    certify_us = min(measure_us / 2, 15_000.0)
    certifications = [_certify_scheme(scheme, certify_us)
                      for scheme in CC_SCHEMES]
    return {
        "runs": [frozen, elastic],
        "recovery_ratio": round(recovery_ratio, 4),
        "certifications": certifications,
        "all_certified": all(
            c["serializable"] and c["migration_cert_ok"]
            for c in certifications),
        "params": {"measure_us": measure_us},
    }


HEADERS = ["placement", "tput [txn/s]", "recovery tput [txn/s]",
           "lat [usec]", "abort %", "migrations", "rows moved"]


def report(payload):
    rows = [[run["placement"], round(run["throughput_tps"], 1),
             round(run["recovery_window_tput_tps"], 1),
             round(run["latency_us"], 1),
             round(run["abort_rate"] * 100, 2),
             run["migration"]["completed"],
             run["migration"]["rows_copied"]]
            for run in payload["runs"]]
    print_table(
        "Ablation: skew-shifted SmallBank under frozen vs. elastic "
        "placement (online reactor migration)",
        HEADERS, rows)
    print(f"post-rebalance throughput recovery: "
          f"{payload['recovery_ratio']:.3f}x over frozen placement")
    for cert in payload["certifications"]:
        print(f"{cert['scheme']}: serializable="
              f"{cert['serializable']} migration_cert_ok="
              f"{cert['migration_cert_ok']} "
              f"(committed={cert['committed']}, "
              f"migrations={cert['migrations_completed']})")


def check(payload):
    """Acceptance conditions; they hold at the default and at the
    ``QUICK`` sizes."""
    frozen, elastic = payload["runs"]
    assert frozen["committed"] > 0 and elastic["committed"] > 0
    # The elastic run really migrated the hot reactors.
    assert elastic["migration"]["completed"] >= 2
    assert frozen["migration"]["completed"] == 0

    # Acceptance: rebalancing recovers >= 1.2x throughput over the
    # frozen placement after the skew shift.
    assert payload["recovery_ratio"] >= 1.2

    # Acceptance: histories spanning a live migration certify under
    # every CC scheme.
    for cert in payload["certifications"]:
        assert cert["migrations_completed"] == 2, cert
        assert cert["serializable"], cert
        assert cert["migration_cert_ok"], cert

    check_quick_tps(payload, QUICK, QUICK_TPS)
