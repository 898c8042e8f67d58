"""Micro-scale smoke tests for experiment modules and their runner.

``python -m repro.experiments --quick --check all`` (CI's
``paper-shapes`` job) runs every experiment and ablation at
measurement scale and asserts each ``check``; these tests run each
``run()`` at the smallest possible parameters so regressions in the
experiment code itself (not the engine) surface in the fast test
suite, and pin the contract the runner relies on, including the
``QUICK_TPS`` throughput gate.
"""

import inspect

import pytest

from repro import experiments
from repro.experiments import (
    abl_cc_schemes,
    abl_cr_asymmetry,
    abl_durability,
    abl_migration,
    abl_mvcc,
    abl_replication,
    abl_safety,
    appf2,
    appf3,
    fig05,
    fig06,
    fig07_08,
    fig09_10,
    fig11,
    fig12,
    fig13_14,
    fig15_16,
    fig17_18,
    fig19,
    table1,
)
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.common import check_quick_tps, row_key

#: The ablations whose run rows are pinned at ``QUICK``.
GATED = (abl_replication, abl_migration, abl_mvcc, abl_durability)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_contract(name):
    """What the runner calls exists, and ``QUICK`` only names
    parameters ``run`` takes."""
    module = getattr(experiments, name)
    assert callable(module.run)
    assert callable(module.report)
    assert callable(module.check)
    assert isinstance(module.QUICK, dict) and module.QUICK
    assert set(module.QUICK) <= set(
        inspect.signature(module.run).parameters)


def test_runner_checks_and_reports_failure(monkeypatch, capsys):
    assert len(EXPERIMENTS) == 20
    assert main(["--quick", "--check", "fig05"]) == 0

    def broken(results):
        raise AssertionError("fully-sync is not the slowest")

    monkeypatch.setattr(fig05, "check", broken)
    monkeypatch.setattr(fig05, "QUICK", dict(
        sizes=(1,), variants=("opt",), n_txns=4,
        customers_per_container=20))
    capsys.readouterr()
    assert main(["--quick", "--check", "fig05"]) != 0
    assert "fig05" in capsys.readouterr().out.splitlines()[-1]
    # Without --check the shape is not consulted.
    assert main(["--quick", "fig05"]) == 0


def test_fig05_micro():
    results = fig05.run(sizes=(1, 2), variants=("fully-sync", "opt"),
                        n_txns=8, customers_per_container=20)
    assert set(results) == {"fully-sync", "opt"}
    assert results["fully-sync"][2] > results["fully-sync"][1]


def test_fig06_micro():
    rows = fig06.run(sizes=(1, 2), variants=("fully-sync",), n_txns=8,
                     customers_per_container=20)
    assert [row.label for row in rows] == ["fully-sync@1",
                                           "fully-sync@2"]
    assert all(row.observed["total"] > 0 and row.predicted["total"] > 0
               for row in rows)


def test_fig07_08_micro():
    points = fig07_08.run(scale_factor=2, worker_counts=(1,),
                          measure_us=6_000.0, n_epochs=2)
    assert len(points) == 3
    assert all(p.throughput_ktps > 0 for p in points)


def test_fig09_10_micro():
    points = fig09_10.run(scale_factor=2, worker_counts=(1,),
                          measure_us=6_000.0, n_epochs=2)
    assert {p.strategy for p in points} == set(fig09_10.DEPLOYMENTS)
    assert all(p.throughput_tps > 0 for p in points)


def test_fig11_micro():
    results = fig11.run(sizes=(2,), n_txns=8,
                        customers_per_container=20)
    assert results["fully-sync-remote"][2] > \
        results["fully-sync-local"][2]


def test_fig12_micro():
    results = fig12.run(executor_counts=(1, 3), n_txns=8,
                        customers_per_container=20)
    assert results["round-robin remote"][3] > \
        results["round-robin remote"][1]


def test_fig13_14_micro():
    points = fig13_14.run(scale_factor=1, thetas=(0.99,),
                          worker_counts=(1, 2), measure_us=4_000.0,
                          calibration_txns=8, n_epochs=2)
    one, two = points
    assert (one.workers, two.workers) == (1, 2)
    # Only the one-worker point carries a cost-model prediction.
    assert one.predicted_with_commit_us > one.predicted_us > 0
    assert two.predicted_us is None


def test_fig15_16_micro():
    points = fig15_16.run(scale_factor=2, cross_pcts=(0, 100),
                          workers=2, measure_us=6_000.0, n_epochs=2)
    assert {p.cross_pct for p in points} == {0, 100}


def test_fig17_18_micro():
    points = fig17_18.run(scale_factors=(1, 2), measure_us=6_000.0,
                          n_epochs=2)
    assert len(points) == 2 * len(fig17_18.DEPLOYMENTS)
    assert all(p.per_core_ktps > 0 for p in points)


def test_fig19_micro():
    results = fig19.run(random_loads=(10,), n_txns=3,
                        orders_per_provider=60, window=20)
    assert set(results) == set(fig19.STRATEGIES)
    assert all(v > 0 for series in results.values()
               for v in series.values())


def test_appf2_micro():
    points = appf2.run(executor_counts=(1, 2), measure_us=6_000.0,
                       n_epochs=2)
    assert points[0].relative_pct == 100.0


def test_appf3_micro():
    points = appf3.run(scale_factors=(1,), measure_us=6_000.0,
                       n_epochs=2)
    assert points[0].overhead_us > 0


def test_table1_micro():
    rows = table1.run(scale_factor=2, measure_us=6_000.0, n_epochs=2)
    assert [(r.cross_reactor_pct, r.workers) for r in rows] == \
        [(1, 1), (1, 4), (100, 1), (100, 4)]
    assert all((r.predicted_ms is not None) == (r.workers == 1)
               for r in rows)


def test_abl_cr_asymmetry_micro():
    rows = abl_cr_asymmetry.run(n_txns=4)
    assert [row[0] for row in rows] == ["asymmetric (paper)",
                                        "symmetric (Cr == Cs)"]
    assert all(row[3] == row[1] - row[2] for row in rows)


def test_abl_safety_micro():
    results = abl_safety.run(measure_us=2_000.0)
    assert set(results) == {abl_safety.SAFE, abl_safety.RACING,
                            abl_safety.INLINED}
    assert results[abl_safety.RACING].summary.aborted > 0


def test_abl_cc_schemes_micro():
    results = abl_cc_schemes.run(schemes=("occ",), skews=(0.9,),
                                 measure_us=1_000.0)
    assert set(results) == {("smallbank h=0.9", "occ"),
                            ("tpcc-neworder r=0.1", "occ"),
                            ("tpcc-neworder r=1.0", "occ")}
    assert all(summary.committed > 0
               for summary, __ in results.values())


def test_abl_replication_micro():
    payload = abl_replication.run(measure_us=1_000.0, warmup_us=500.0)
    assert payload["params"] == {"measure_us": 1_000.0,
                                 "warmup_us": 500.0}
    assert {row_key(run) for run in payload["runs"]} == \
        set(abl_replication.QUICK_TPS)


def test_abl_migration_micro():
    payload = abl_migration.run(measure_us=2_000.0)
    assert {row_key(run) for run in payload["runs"]} == \
        set(abl_migration.QUICK_TPS)
    assert [c["scheme"] for c in payload["certifications"]] == \
        list(abl_migration.CC_SCHEMES)


def test_abl_mvcc_micro():
    payload = abl_mvcc.run(measure_us=1_000.0, warmup_us=500.0)
    assert {row_key(run) for run in payload["runs"]} == \
        set(abl_mvcc.QUICK_TPS)
    assert all("snapshot_certificate" in run for run in payload["runs"]
               if run["scheme"] == abl_mvcc.SNAPSHOT)


def test_abl_durability_micro():
    payload = abl_durability.run(measure_us=1_000.0, curve_txns=10)
    assert {row_key(run) for run in payload["runs"]} == \
        set(abl_durability.QUICK_TPS)
    assert [row["checkpoint_every"] for row in
            payload["recovery_curve"]] == \
        list(abl_durability.CHECKPOINT_CADENCE)


def pinned_payload(module, scale=None):
    """A payload at ``module.QUICK`` whose run rows carry exactly the
    pinned throughputs (one row scaled by ``scale``, if given)."""
    runs = [{**dict(axis.split("=", 1) for axis in key.split()),
             "throughput_tps": tps}
            for key, tps in module.QUICK_TPS.items()]
    if scale is not None:
        runs[0]["throughput_tps"] *= scale
    return {"runs": runs, "params": dict(module.QUICK)}


@pytest.mark.parametrize("module", GATED, ids=lambda m: m.__name__)
def test_quick_tps_gate(module):
    """At ``QUICK`` a drop of more than 20 % or a missing row fails;
    19 % passes, and other parameters are not gated."""
    def check(payload):
        check_quick_tps(payload, module.QUICK, module.QUICK_TPS)

    check(pinned_payload(module))
    check(pinned_payload(module, scale=0.81))
    dropped = pinned_payload(module, scale=0.79)
    with pytest.raises(AssertionError, match="fell more than 20%") as \
            failure:
        check(dropped)
    # The message names the value to pin after a deliberate change.
    assert repr(dropped["runs"][0]["throughput_tps"]) in \
        str(failure.value)
    missing = pinned_payload(module)
    gone = row_key(missing["runs"].pop())
    with pytest.raises(AssertionError, match="gated run row missing"):
        check(missing)
    assert gone in module.QUICK_TPS
    elsewhere = pinned_payload(module, scale=0.5)
    elsewhere["params"]["measure_us"] = 1.0
    check(elsewhere)
