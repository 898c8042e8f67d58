"""Smoke tests: example scripts run end-to-end as subprocesses."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "identical results under both architectures" in out


def test_crash_recovery():
    out = run_example("crash_recovery.py")
    assert "CRASH — mid-epoch" in out
    assert "certificate: ok" in out
    assert "recovered database accepts new transactions" in out


def test_replication_failover():
    out = run_example("replication_failover.py")
    assert "no committed data lost" in out
    assert "promoted replica accepts new transactions" in out


def test_deployment_tuning():
    out = run_example("deployment_tuning.py")
    assert "zero application" in out
    assert "shared-nothing" in out


def test_serve_and_connect():
    out = run_example("serve_and_connect.py")
    assert "negotiated protocol v1" in out
    assert "typed shed: retry after" in out


def test_static_safety_check():
    out = run_example("static_safety_check.py")
    assert "[cycle] ping -> pong" in out
    assert "fanout-race" in out


@pytest.mark.slow
def test_tpcc_demo():
    out = run_example("tpcc_demo.py", timeout=400)
    assert "Ktxn/s" in out


@pytest.mark.slow
def test_exchange_risk():
    out = run_example("exchange_risk.py", timeout=500)
    match = re.search(
        r"procedure-parallelism speedup over sequential: ([\d.]+)x",
        out)
    assert match, out
    # Virtual time: the figure is exact (12.3x); the paper's claim is
    # that procedure-level parallelism cuts latency several-fold.
    assert float(match.group(1)) > 5.0
