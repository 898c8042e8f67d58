"""Smoke test of the end-to-end benchmark: ``run.py --quick`` on all
four workloads, and the traced run on one served and one embedded
workload, checked against ``BENCHMARK.json``.

Numbers from a quick run mean nothing; what is asserted is the
plumbing — every declared metric and workload is produced under its
declared name and unit, nothing fails, the answers are judged correct,
and ``compare.py`` accepts a file against itself.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(script: str, *args: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(E2E / script), *map(str, args)],
        capture_output=True, text=True, timeout=300,
        # Set here, run.py need not start itself a second time.
        env={**os.environ, "PYTHONHASHSEED": "0"})


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


def test_manifest_respects_the_limits():
    workloads = [w["name"] for w in MANIFEST["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert "setup_s" in _declared("end_to_end")
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    for name in (*workloads, *_declared("end_to_end"),
                 *_declared("per_layer")):
        assert NAME.fullmatch(name), name


def test_quick_run_matches_the_manifest(tmp_path):
    out = tmp_path / "quick.json"
    done = _run("run.py", "--quick", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())

    assert set(result["workloads"]) == \
        {w["name"] for w in MANIFEST["workloads"]}
    assert "workload" not in result["meta"]
    for workload, runs in result["workloads"].items():
        run = runs["end_to_end"]
        assert run["meta"]["workload"] == workload
        assert set(run["metrics"]) == set(_declared("end_to_end"))
        assert run["failures"] == [], (workload, run["failures"])
        assert run["failed"] == 0 and run["attempted"] >= 1
        for metric in run["metrics"].values():
            assert metric["value"] > 0

    same = _run("compare.py", out, out)
    assert same.returncode == 0, same.stdout + same.stderr
    verdicts = [line.split()[-1]
                for line in same.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"ok"}, same.stdout


@pytest.mark.parametrize("workload", ["sb_served", "tpcc_embedded"])
def test_quick_traced_run_matches_the_manifest(workload):
    """The driver's own interface: one workload, the result as the
    last line of standard output."""
    done = _run("run.py", "--workload", workload, "--quick",
                "--trace", 1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _declared("per_layer")


def test_a_certificate_failure_is_confirmed_on_certain_edges():
    """``check.certain_cycle``: a write takes effect somewhere between
    its buffering and its transaction's commit event."""
    from repro.formal.history import history_of
    from repro.formal.ops import commit, read, write
    from repro.formal.serializability import is_serializable_reactor

    sys.path.insert(0, str(E2E))
    try:
        from check import certain_cycle
    finally:
        sys.path.remove(str(E2E))

    lost_update = history_of([
        read(1, 0, 0, "x"), read(2, 0, 0, "x"),
        write(1, 0, 0, "x"), write(2, 0, 0, "x"),
        commit(1), commit(2)])
    assert not is_serializable_reactor(lost_update)
    assert certain_cycle(lost_update)

    # T2 reads x after T1 buffered it but commits first, so it saw the
    # old x and precedes T1 both times: recorded order says otherwise.
    read_under_buffered_write = history_of([
        read(2, 0, 0, "y"), write(1, 0, 0, "x"), read(2, 0, 0, "x"),
        commit(2), write(1, 0, 0, "y"), commit(1)])
    assert not is_serializable_reactor(read_under_buffered_write)
    assert not certain_cycle(read_under_buffered_write)


def test_manifest_is_what_the_benchmark_declares():
    """``metrics.py`` and ``workloads.py`` are what ``run.py`` reports;
    ``BENCHMARK.json`` must repeat them (``run.py --manifest``)."""
    done = _run("run.py", "--manifest")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == MANIFEST
