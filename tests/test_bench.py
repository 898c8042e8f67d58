"""Benchmark harness tests: metrics, workers, measurement engine, and
the end-to-end benchmark's open loop."""

import importlib.util
import itertools
import threading
import time
from pathlib import Path

import pytest

from repro.bench.metrics import mean, percentile, stddev, summarize
from repro.bench.report import format_table, print_series
from repro.bench.harness import run_measurement, single_worker_latency
from repro.client.base import Outcome, Submission
from repro.core.deployment import shared_nothing
from repro.runtime.transaction import TxnStats
from tests.conftest import make_bank

SPEC = importlib.util.spec_from_file_location(
    "e2e_harness",
    Path(__file__).parent.parent / "benchmarks" / "e2e" / "harness.py")
e2e_harness = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(e2e_harness)


def stat(txn_id, end, committed=True, latency=10.0, user_abort=False):
    return TxnStats(
        txn_id=txn_id, procedure="p", reactor="r",
        committed=committed, abort_reason=None,
        start=end - latency, end=end,
        breakdown={"sync_execution": latency},
        user_abort=user_abort)


class TestStatistics:
    def test_mean_std(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert stddev([2.0, 4.0]) == pytest.approx(1.4142, rel=1e-3)
        assert stddev([5.0]) == 0.0

    def test_percentile(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile([], 50) == 0.0
        # Unsorted input, q=0, and the ranks where a float product
        # lands just above an integer.
        thousand = [float(i) for i in range(1, 1001)]
        assert percentile(thousand, 99.9) == 999.0
        assert percentile(thousand[::-1], 99.9) == 999.0
        assert percentile(thousand, 0.0) == 1.0
        assert percentile(range(1, 3001), 99.9) == 2997

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.9, 100.0])
    def test_percentile_of_one_sample(self, q):
        assert percentile([7.0], q) == 7.0


class TestSummarize:
    def test_window_filtering(self):
        stats = [stat(i, end=float(i)) for i in range(100)]
        summary = summarize(stats, 10.0, 60.0, n_epochs=5)
        assert summary.committed == 50

    def test_throughput_per_epoch(self):
        # 10 txns uniformly over a 100us window = 100K txn/sec.
        stats = [stat(i, end=5.0 + 10.0 * i) for i in range(10)]
        summary = summarize(stats, 0.0, 100.0, n_epochs=5)
        assert summary.throughput_tps == pytest.approx(100_000.0)
        assert summary.throughput_std == 0.0

    def test_abort_accounting(self):
        stats = [stat(1, 10.0), stat(2, 20.0, committed=False,
                                     user_abort=True),
                 stat(3, 30.0, committed=False)]
        summary = summarize(stats, 0.0, 100.0)
        assert summary.aborted == 2
        assert summary.user_aborts == 1
        assert summary.abort_rate == pytest.approx(2 / 3)

    def test_breakdown_averaged(self):
        stats = [stat(1, 10.0, latency=10.0),
                 stat(2, 20.0, latency=20.0)]
        summary = summarize(stats, 0.0, 100.0)
        assert summary.breakdown["sync_execution"] == 15.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            summarize([], 10.0, 10.0)

    def test_unit_properties(self):
        stats = [stat(1, 10.0, latency=1000.0)]
        summary = summarize(stats, 0.0, 1000.0, n_epochs=1)
        assert summary.latency_ms == pytest.approx(1.0)
        assert summary.throughput_ktps == pytest.approx(
            summary.throughput_tps / 1000.0)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_print_series(self, capsys):
        print_series("t", "x", {"s1": {1: 1.0, 2: 2.0},
                                "s2": {1: 3.0}}, unit="us")
        out = capsys.readouterr().out
        assert "t [us]" in out
        assert "s1" in out and "s2" in out


class TestMeasurementEngine:
    def test_closed_loop_measurement(self):
        database = make_bank(shared_nothing(3))

        def factory(worker_id):
            return lambda worker: ("acct0", "get_balance", ())

        result = run_measurement(database, 1, factory,
                                 warmup_us=500.0, measure_us=5_000.0,
                                 n_epochs=5)
        assert result.summary.committed > 10
        assert result.summary.latency_us > 0
        assert result.window_us == 5_000.0
        # One executor busy, the others idle.
        utilization = result.utilization()
        assert max(utilization.values()) > 0

    def test_workers_include_client_costs_in_latency(self):
        database = make_bank(shared_nothing(3))

        def factory(worker_id):
            return lambda worker: ("acct0", "get_balance", ())

        result = run_measurement(database, 1, factory,
                                 warmup_us=200.0, measure_us=2_000.0)
        stats = result.raw_stats[-1]
        costs = database.costs
        floor = costs.input_gen + costs.client_send + \
            costs.client_receive
        assert stats.latency > floor
        assert stats.breakdown["commit_input_gen"] >= floor

    def test_multiple_workers_share_load(self):
        database = make_bank(shared_nothing(3))

        def factory(worker_id):
            name = f"acct{worker_id % 3}"
            return lambda worker: (name, "get_balance", ())

        result = run_measurement(database, 3, factory,
                                 warmup_us=200.0, measure_us=3_000.0)
        assert all(w.issued > 0 for w in result.workers)

    def test_single_worker_latency_filters_warmup(self):
        database = make_bank(shared_nothing(3))
        result = single_worker_latency(
            database, lambda w: ("acct0", "get_balance", ()),
            n_txns=20, warmup_txns=5)
        assert len(result.raw_stats) == 20

    def test_deterministic_given_seed(self):
        latencies = []
        for __ in range(2):
            database = make_bank(shared_nothing(3))

            def factory(worker_id):
                return lambda worker: ("acct0", "transfer",
                                       ("acct5", 1.0))

            result = run_measurement(database, 2, factory,
                                     warmup_us=200.0,
                                     measure_us=2_000.0, seed=9)
            latencies.append(result.summary.latency_us)
        assert latencies[0] == latencies[1]


def test_open_loop_times_requests_from_their_intended_send():
    """A sender that stalls inside ``submit`` charges the backlog to
    the requests it held back, so latency grows across the run; timed
    from when the sender reached each request, every latency would
    read one stall (coordinated omission)."""
    stall = 0.004

    class StallingClient:
        def submit(self, reactor, proc, *args, on_done=None):
            time.sleep(stall)
            submission = Submission()
            submission.add_done_callback(on_done)
            submission.resolve(Outcome(True))
            return submission

    tally = e2e_harness.Tally()
    # Ten arrivals 0.1 ms apart, far faster than the sender can go.
    spans = e2e_harness.Driver(StallingClient(), tally).open_loop(
        itertools.repeat(("r", "p", ())), itertools.repeat(0.0001),
        0.00105)
    n = len(spans)
    assert n == 10 and tally.kinds["committed"] == n
    latencies = spans.latencies_us()
    assert latencies[-1] > (n - 2) * stall * 1e6 / 2
    assert latencies[-1] > latencies[0]
    assert spans.max_send_lag_us() > stall * 1e6


@pytest.mark.parametrize("outcome, kind", [
    (Outcome(True), "committed"),
    (Outcome(False, reason="user"), "aborted"),
    (Outcome(False, reason="bound", error_code="overloaded",
             retry_after_us=10.0), "shed"),
    (Outcome(False, reason="bad", error_code="bad_request"), "error"),
    (None, "timeout"),
])
def test_tally_sorts_answers_from_failures(outcome, kind, monkeypatch):
    """Commits and aborts are answers; a shed, a typed error and a
    request never answered within the reply timeout are failures."""
    monkeypatch.setattr(e2e_harness, "REPLY_TIMEOUT_S", 0.05)
    submission = Submission()
    if outcome is not None:
        submission.resolve(outcome)
    tally = e2e_harness.Tally()
    e2e_harness.Driver(object(), tally).finish([submission])
    assert tally.kinds == {kind: 1}
    assert tally.failed == (kind not in ("committed", "aborted"))


def test_open_loop_waits_for_answers_from_another_thread():
    """Submissions resolved off the sender's thread (the ``TcpClient``
    shape) are waited for, and each is timed to its own answer."""
    pending = []

    class AsyncClient:
        def submit(self, reactor, proc, *args, on_done=None):
            submission = Submission()
            submission.add_done_callback(on_done)
            pending.append(submission)
            return submission

    def resolver():
        while len(pending) < 5:
            time.sleep(0.001)
        for submission in pending:
            submission.resolve(Outcome(True))

    thread = threading.Thread(target=resolver, daemon=True)
    thread.start()
    tally = e2e_harness.Tally()
    spans = e2e_harness.Driver(AsyncClient(), tally).open_loop(
        itertools.repeat(("r", "p", ())), itertools.repeat(0.0002),
        0.0011)
    thread.join(timeout=5.0)
    assert len(spans) == 5 and tally.kinds == {"committed": 5}
    assert all(latency > 0 for latency in spans.latencies_us())


def test_closed_loop_holds_no_more_than_inflight(monkeypatch):
    """With no answer coming, the closed loop sends ``inflight``
    requests, gives up after one reply timeout and tallies each as a
    failure."""
    monkeypatch.setattr(e2e_harness, "REPLY_TIMEOUT_S", 0.05)

    class SilentClient:
        def submit(self, reactor, proc, *args, on_done=None):
            return Submission()

    tally = e2e_harness.Tally()
    spans = e2e_harness.Driver(SilentClient(), tally).closed_loop(
        itertools.repeat(("r", "p", ())), inflight=3)
    assert len(spans) == 3
    assert tally.kinds == {"timeout": 3} and tally.failed == 3
