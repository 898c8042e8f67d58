"""The CI perf-regression gate (tools/bench_compare.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).parent.parent / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_compare)


def payload(tput_a=100.0, tput_b=200.0, extra_run=None,
            gate=("throughput_tps", 0.20), kop_a=10.0):
    """A two-row payload gated on ``gate`` (``None``: no block)."""
    runs = [
        {"workload": "smallbank", "mode": "sync",
         "throughput_tps": tput_a, "txns_per_kop": kop_a,
         "latency_us": 50.0, "p99_us": 80.0, "abort_rate": 0.01,
         "committed": 10, "fsyncs": 10},
        {"workload": "smallbank", "mode": "group",
         "throughput_tps": tput_b, "txns_per_kop": 20.0,
         "latency_us": 30.0, "p99_us": 60.0, "abort_rate": 0.01,
         "committed": 20, "fsyncs": 2},
    ]
    if extra_run is not None:
        runs.append(extra_run)
    data = {"runs": runs, "meta": {"benchmark": "x"}}
    if gate is not None:
        data["gate"] = {"metric": gate[0], "tolerance": gate[1]}
    return data


def write(dirpath, name, data):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / f"BENCH_{name}.json").write_text(json.dumps(data))


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "baselines", tmp_path / "current"


def run_gate(dirs, names=("demo",)):
    baseline, current = dirs
    return bench_compare.main([
        *names,
        "--baseline-dir", str(baseline),
        "--current-dir", str(current),
    ])


class TestRowIdentity:
    def test_key_uses_only_configuration_axes(self):
        run = payload()["runs"][0]
        key = bench_compare.row_key(run)
        assert key == "workload=smallbank mode=sync"
        # Outputs (throughput, fsync counters) never leak into the
        # identity — they move with every measurement.
        assert "throughput" not in key
        assert "fsyncs" not in key

    def test_latency_percentiles_are_report_only_context(self):
        for metric in ("p50_us", "p99_us"):
            assert metric in bench_compare.REPORT_METRICS

    def test_counter_drift_does_not_vanish_rows(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        drifted = payload()
        drifted["runs"][0]["fsyncs"] = 999
        drifted["runs"][0]["committed"] = 999
        write(current, "demo", drifted)
        assert run_gate(dirs) == 0


class TestGate:
    def test_identical_results_pass(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload())
        assert run_gate(dirs) == 0

    def test_within_band_regression_passes(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload(tput_a=85.0))  # -15%
        assert run_gate(dirs) == 0

    def test_out_of_band_regression_fails(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload(tput_a=70.0))  # -30%
        assert run_gate(dirs) == 1

    def test_gate_block_names_metric_and_tolerance(self, dirs):
        """harness_speed's gate: ``txns_per_kop`` at a 50 % band; the
        throughput column is not gated then."""
        baseline, current = dirs
        gate = ("txns_per_kop", 0.5)
        write(baseline, "demo", payload(gate=gate))
        write(current, "demo", payload(gate=gate, kop_a=6.0,
                                       tput_a=10.0))  # -40 %
        assert run_gate(dirs) == 0
        write(current, "demo", payload(gate=gate, kop_a=4.0))  # -60 %
        assert run_gate(dirs) == 1

    def test_baseline_gate_block_wins(self, dirs):
        """The committed baseline, not the fresh payload, defines the
        contract."""
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload(tput_a=70.0,
                                       gate=("throughput_tps", 0.5)))
        assert run_gate(dirs) == 1

    def test_baseline_without_gate_block_fails(self, dirs, capsys):
        baseline, current = dirs
        write(baseline, "demo", payload(gate=None))
        write(current, "demo", payload())
        assert run_gate(dirs) == 1
        assert "has no gate block" in capsys.readouterr().out

    def test_improvement_passes(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload(tput_a=500.0))
        assert run_gate(dirs) == 0

    def test_latency_is_report_only(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        worse = payload()
        for run in worse["runs"]:
            run["latency_us"] *= 10
        write(current, "demo", worse)
        assert run_gate(dirs) == 0

    def test_missing_baseline_row_fails(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload(extra_run={
            "workload": "tpcc", "mode": "sync",
            "throughput_tps": 10.0}))
        write(current, "demo", payload())
        assert run_gate(dirs) == 1

    def test_new_row_is_tolerated(self, dirs):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload(extra_run={
            "workload": "tpcc", "mode": "sync",
            "throughput_tps": 10.0}))
        assert run_gate(dirs) == 0

    def test_missing_baseline_file_fails(self, dirs):
        __, current = dirs
        write(current, "demo", payload())
        assert run_gate(dirs) == 1

    def test_missing_current_file_fails(self, dirs):
        baseline, __ = dirs
        write(baseline, "demo", payload())
        assert run_gate(dirs) == 1


class TestUpdateAndSummary:
    def test_update_copies_current_over_baselines(self, dirs):
        baseline, current = dirs
        write(current, "demo", payload())
        assert bench_compare.main([
            "demo", "--update",
            "--baseline-dir", str(baseline),
            "--current-dir", str(current)]) == 0
        assert json.loads(
            (baseline / "BENCH_demo.json").read_text()) == payload()

    def test_github_step_summary_written(self, dirs, tmp_path,
                                         monkeypatch):
        baseline, current = dirs
        write(baseline, "demo", payload())
        write(current, "demo", payload())
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert run_gate(dirs) == 0
        assert "Bench regression gate" in summary.read_text()

    def test_repo_baselines_exist_for_ci_matrix(self):
        """The two benches CI compares both have committed baselines,
        each carrying its own gate block."""
        for name in ("harness_speed", "backend_scaleup"):
            path = bench_compare.DEFAULT_BASELINE / \
                f"BENCH_{name}.json"
            assert path.exists(), path
            data = json.loads(path.read_text())
            assert data.get("runs"), name
            metric, tolerance = bench_compare.gate_of(data)
            assert all(metric in run for run in data["runs"]), name
            assert 0 < tolerance < 1, name
