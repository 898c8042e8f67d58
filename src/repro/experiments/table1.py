"""Table 1 (Appendix D): cost-model validation on TPC-C new-order.

100% new-order at scale factor 4 under the shared-nothing deployment,
with 1% and 100% probability of cross-reactor stock updates.  With one
worker, observed latency is compared against the Figure 3 prediction
(calibrated from profiling runs and the average realized batch shape)
with and without the measured commit + input-generation component.
Four-worker numbers are observed only — queueing is outside the
model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.costmodel import Calibration, tpcc_new_order
from repro.experiments.common import tpcc_database
from repro.workloads import tpcc


@dataclass
class Table1Row:
    cross_reactor_pct: int
    workers: int
    observed_tps: float
    observed_latency_ms: float
    predicted_ms: float | None
    predicted_with_commit_ms: float | None
    abort_rate: float


def _workload(remote_prob: float, scale_factor: int) -> tpcc.TpccWorkload:
    return tpcc.TpccWorkload(
        n_warehouses=scale_factor, mix=tpcc.NEW_ORDER_ONLY,
        remote_item_prob=remote_prob, invalid_item_prob=0.0)


def _measure(remote_prob: float, workers: int, scale_factor: int,
             measure_us: float, n_epochs: int):
    database = tpcc_database("shared-nothing-async", scale_factor)
    workload = _workload(remote_prob, scale_factor)
    return run_measurement(
        database, workers, workload.factory_for,
        warmup_us=measure_us * 0.1, measure_us=measure_us,
        n_epochs=n_epochs).summary


def _calibrate(scale_factor: int, measure_us: float,
               n_epochs: int) -> Calibration:
    """Profile all-local runs (isolating processing scaling with item
    count is implicit in the averages) and a 100%-remote run for the
    communication parameters, per the paper's calibration from a
    one-local-one-remote-item new-order."""
    local = _measure(0.0, 1, scale_factor, measure_us, n_epochs)
    remote = _measure(1.0, 1, scale_factor, measure_us, n_epochs)
    avg_items = 10.0  # uniform 5..15
    leaf = local.breakdown["sync_execution"] / avg_items
    __, remote_batches = _realized_batches(1.0, scale_factor)
    n_batches = max(1.0, float(len(remote_batches)))
    cs = remote.breakdown["cs"] / n_batches
    cr = remote.breakdown["cr"] / n_batches
    return Calibration(
        cs=cs, cr=cr, leaf_exec=leaf,
        commit_input_gen=local.breakdown["commit_input_gen"])


def _realized_batches(remote_prob: float, scale_factor: int,
                      samples: int = 2000, seed: int = 11
                      ) -> tuple[float, list[float]]:
    """Average (local item count, remote batch sizes) per new-order."""
    workload = _workload(remote_prob, scale_factor)
    rng = random.Random(f"table1/{seed}")
    local_total = 0.0
    all_batches: list[list[int]] = []
    for __ in range(samples):
        home, __name, args = workload.new_order_spec(rng, 1)
        items = args[3]
        per_wh: dict[str, int] = {}
        for supply, __i, __q in items:
            per_wh[supply] = per_wh.get(supply, 0) + 1
        local_total += per_wh.pop(home, 0)
        all_batches.append(sorted(per_wh.values(), reverse=True))
    avg_local = local_total / samples
    max_batches = max((len(b) for b in all_batches), default=0)
    avg_batches = []
    for position in range(max_batches):
        sizes = [b[position] for b in all_batches if len(b) > position]
        presence = len(sizes) / samples
        if presence < 0.05:
            break
        avg_batches.append(sum(sizes) / len(sizes) * presence)
    return avg_local, avg_batches


QUICK = dict(scale_factor=4, measure_us=60_000.0, n_epochs=4)


def run(scale_factor: int = 4, measure_us: float = 100_000.0,
        n_epochs: int = 5) -> list[Table1Row]:
    calibration = _calibrate(scale_factor, measure_us, n_epochs)
    rows = []
    for remote_prob, pct in ((0.01, 1), (1.0, 100)):
        avg_local, batches = _realized_batches(remote_prob,
                                               scale_factor)
        for workers in (1, 4):
            summary = _measure(remote_prob, workers, scale_factor,
                               measure_us, n_epochs)
            predicted_ms = None
            predicted_commit_ms = None
            if workers == 1:
                spec = tpcc_new_order(
                    calibration,
                    local_work=calibration.leaf_exec * avg_local,
                    remote_batches=batches)
                commit = summary.breakdown.get("commit_input_gen", 0.0)
                predicted_ms = spec.latency() / 1000.0
                predicted_commit_ms = (spec.latency() + commit) / 1000.0
            rows.append(Table1Row(
                cross_reactor_pct=pct,
                workers=workers,
                observed_tps=summary.throughput_tps,
                observed_latency_ms=summary.latency_ms,
                predicted_ms=predicted_ms,
                predicted_with_commit_ms=predicted_commit_ms,
                abort_rate=summary.abort_rate,
            ))
    return rows


def report(rows: list[Table1Row]) -> None:
    headers = ["cross-reactor %", "workers", "TPS obs",
               "latency obs [ms]", "latency pred [ms]",
               "latency pred+C+I [ms]", "abort %"]
    table = []
    for row in rows:
        table.append([
            row.cross_reactor_pct, row.workers,
            round(row.observed_tps), row.observed_latency_ms,
            "-" if row.predicted_ms is None else row.predicted_ms,
            "-" if row.predicted_with_commit_ms is None
            else row.predicted_with_commit_ms,
            round(row.abort_rate * 100, 2),
        ])
    print_table("Table 1: TPC-C new-order performance at scale "
                "factor 4", headers, table)


def check(rows: list[Table1Row]) -> None:
    """Paper shape: the one-worker prediction (plus measured commit
    and input generation) fits at both 1% and 100% cross-reactor
    access; overlap keeps the 100% penalty modest; four workers raise
    throughput ~4x at 1%."""
    by_key = {(r.cross_reactor_pct, r.workers): r for r in rows}
    obs_1_local = by_key[(1, 1)]
    obs_1_remote = by_key[(100, 1)]

    # Prediction quality with one worker (paper: "excellent fit").
    for row in (obs_1_local, obs_1_remote):
        assert row.predicted_with_commit_ms is not None
        error = abs(row.predicted_with_commit_ms -
                    row.observed_latency_ms) / row.observed_latency_ms
        assert error < 0.45

    # Overlap keeps the 100% cross-reactor penalty modest (< 2.2x).
    assert obs_1_remote.observed_latency_ms < \
        2.2 * obs_1_local.observed_latency_ms

    # More workers, more throughput.
    assert by_key[(1, 4)].observed_tps > \
        2.5 * by_key[(1, 1)].observed_tps
