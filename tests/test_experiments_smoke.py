"""Micro-scale smoke tests for experiment modules and their runner.

``python -m repro.experiments --quick --check all`` (CI's
``paper-shapes`` job) runs every experiment at measurement scale and
asserts the paper's shapes; these tests run each ``run()`` at the
smallest possible parameters so regressions in the experiment code
itself (not the engine) surface in the fast test suite, and pin the
contract the runner relies on.
"""

import inspect

import pytest

from repro import experiments
from repro.experiments import (
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
    assert len(EXPERIMENTS) == 13
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
