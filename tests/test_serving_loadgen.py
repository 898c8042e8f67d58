"""Open-loop load generation: schedules, percentiles, CO-awareness."""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench.metrics import percentile
from repro.client.base import Outcome, Submission
from repro.serving.loadgen import (
    ArrivalSchedule,
    OpenLoopResult,
    run_open_loop,
)


def test_fixed_schedule_is_evenly_spaced():
    sched = ArrivalSchedule.fixed(1000.0, 5)
    assert sched.kind == "fixed"
    assert sched.offsets_s == pytest.approx(
        [0.0, 0.001, 0.002, 0.003, 0.004])


def test_poisson_schedule_is_seeded():
    a = ArrivalSchedule.poisson(500.0, 50, seed=7)
    b = ArrivalSchedule.poisson(500.0, 50, seed=7)
    c = ArrivalSchedule.poisson(500.0, 50, seed=8)
    assert a.offsets_s == b.offsets_s
    assert a.offsets_s != c.offsets_s
    # Monotone arrivals with roughly the requested mean gap.
    assert a.offsets_s == sorted(a.offsets_s)
    mean_gap = a.offsets_s[-1] / len(a)
    assert 0.2 / 500.0 < mean_gap < 5.0 / 500.0


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        ArrivalSchedule.fixed(0.0, 5)
    with pytest.raises(ValueError):
        ArrivalSchedule.poisson(-1.0, 5)


def _result(latencies_us, **kwargs):
    defaults = dict(schedule=ArrivalSchedule.fixed(100.0,
                                                   len(latencies_us)),
                    offered=len(latencies_us),
                    committed=len(latencies_us), shed=0, failed=0,
                    duration_s=1.0,
                    latencies_us=sorted(latencies_us),
                    max_send_lag_us=0.0)
    defaults.update(kwargs)
    return OpenLoopResult(**defaults)


def test_percentiles_are_exact_nearest_rank():
    samples = [float(i) for i in range(1, 1001)]
    result = _result(samples)
    assert result.p50_us == 500.0
    assert result.p99_us == 990.0
    assert result.p999_us == 999.0
    assert result.percentile_us(100.0) == 1000.0
    # The one shared function, on unsorted input and at the ranks
    # where a float product lands just above an integer.
    assert percentile(samples[::-1], 99.9) == 999.0
    assert percentile(samples, 0.0) == 1.0
    assert percentile(range(1, 3001), 99.9) == 2997


def test_percentiles_of_tiny_samples():
    assert _result([7.0]).p999_us == 7.0
    assert _result([]).p50_us == 0.0


def test_summary_carries_arrival_rate_key():
    summary = _result([1.0, 2.0, 3.0]).summary()
    assert summary["arrival_rate"] == 100.0
    assert summary["arrival_process"] == "fixed"
    for key in ("p50_us", "p99_us", "p999_us", "throughput_tps",
                "shed_fraction", "max_send_lag_us"):
        assert key in summary


class InstantClient:
    """Resolves every submission immediately on the caller thread."""

    def __init__(self, outcome_for=None):
        self.outcome_for = outcome_for or \
            (lambda i: Outcome(True, result=i))
        self.count = 0

    def submit(self, reactor, proc, *args, read_only=None,
               on_done=None):
        sub = Submission()
        if on_done is not None:
            sub.add_done_callback(on_done)
        sub.resolve(self.outcome_for(self.count))
        self.count += 1
        return sub


class StallingClient(InstantClient):
    """Blocks the sender inside submit — the classic slow-server shape
    that coordinated omission hides."""

    def __init__(self, stall_s):
        super().__init__()
        self.stall_s = stall_s

    def submit(self, *args, **kwargs):
        time.sleep(self.stall_s)
        return super().submit(*args, **kwargs)


def test_open_loop_counts_outcomes():
    def outcome_for(i):
        if i % 3 == 0:
            return Outcome(True, result=i)
        if i % 3 == 1:
            return Outcome(False, reason="bound",
                           error_code="overloaded",
                           retry_after_us=10.0)
        return Outcome(False, reason="aborted")

    result = run_open_loop(
        InstantClient(outcome_for), ArrivalSchedule.fixed(2000.0, 30),
        lambda i: ("r", "p", ()))
    assert result.offered == 30
    assert result.committed == 10
    assert result.shed == 10
    assert result.failed == 10
    assert result.shed_fraction == pytest.approx(1 / 3)
    # Shed/failed requests contribute no latency samples.
    assert len(result.latencies_us) == 10


def test_latency_measured_from_intended_send_time():
    """A stalled sender charges the induced queueing delay to later
    requests: recorded latencies grow across the run even though each
    request is served instantly once sent.  A coordinated-omission-
    blind recorder would report ~0 for every request."""
    stall = 0.004
    n = 10
    # Intended rate far beyond what the stalling sender can sustain.
    result = run_open_loop(
        StallingClient(stall), ArrivalSchedule.fixed(10_000.0, n),
        lambda i: ("r", "p", ()))
    assert result.committed == n
    # The last request was intended ~n/rate in, but got sent after
    # ~n stalls: its recorded latency must reflect the backlog.
    assert result.latencies_us[-1] > (n - 2) * stall * 1e6 / 2
    assert result.max_send_lag_us > stall * 1e6
    # And the distribution is increasing, not flat at service time.
    assert result.p999_us > result.p50_us > 0


def test_open_loop_timeout_raises():
    class NeverClient:
        def submit(self, *args, **kwargs):
            return Submission()  # never resolves

    with pytest.raises(TimeoutError):
        run_open_loop(NeverClient(), ArrivalSchedule.fixed(1000.0, 3),
                      lambda i: ("r", "p", ()), timeout=0.2)


def test_open_loop_resolution_from_another_thread():
    """Submissions resolved off-thread (the TcpClient shape) drain."""
    pending = []

    class AsyncClient:
        def submit(self, reactor, proc, *args, read_only=None,
                   on_done=None):
            sub = Submission()
            if on_done is not None:
                sub.add_done_callback(on_done)
            pending.append(sub)
            return sub

    def resolver():
        while len(pending) < 5:
            time.sleep(0.001)
        for sub in pending:
            sub.resolve(Outcome(True))

    thread = threading.Thread(target=resolver, daemon=True)
    thread.start()
    result = run_open_loop(
        AsyncClient(), ArrivalSchedule.poisson(5000.0, 5, seed=3),
        lambda i: ("r", "p", ()), timeout=5.0)
    thread.join(timeout=5.0)
    assert result.committed == 5
