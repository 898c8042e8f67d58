"""Appendix F.3: containerization overhead.

Empty transactions submitted with concurrency control disabled
measure the pure cost of a transaction invocation through ReactDB's
container machinery: input generation, the client -> transaction
executor thread switch, executor wake-up, and the reply switch.  The
paper reports a roughly constant ~22 usec per invocation across scale
factors, dominated by cross-core thread switching, amounting to ~18%
of average TPC-C transaction latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.experiments.common import tpcc_database
from repro.workloads import tpcc


@dataclass
class OverheadPoint:
    scale_factor: int
    overhead_us: float
    tpcc_latency_us: float
    overhead_pct_of_tpcc: float


QUICK = dict(scale_factors=(1, 4, 8), measure_us=30_000.0, n_epochs=4)


def run(scale_factors: tuple[int, ...] = (1, 4, 8, 16),
        measure_us: float = 50_000.0,
        n_epochs: int = 5) -> list[OverheadPoint]:
    points = []
    for scale_factor in scale_factors:
        empty_db = tpcc_database("shared-nothing-async", scale_factor,
                                 cc_scheme="none")

        def empty_factory(worker_id: int):
            w_name = tpcc.warehouse_name(
                worker_id % scale_factor + 1)
            return lambda worker: (w_name, "empty_txn", ())

        result = run_measurement(
            empty_db, 1, empty_factory,
            warmup_us=measure_us * 0.1, measure_us=measure_us,
            n_epochs=n_epochs)
        overhead = result.summary.latency_us

        tpcc_db = tpcc_database("shared-nothing-async", scale_factor)
        workload = tpcc.TpccWorkload(n_warehouses=scale_factor)
        tpcc_result = run_measurement(
            tpcc_db, 1, workload.factory_for,
            warmup_us=measure_us * 0.1, measure_us=measure_us,
            n_epochs=n_epochs)
        tpcc_latency = tpcc_result.summary.latency_us

        points.append(OverheadPoint(
            scale_factor=scale_factor,
            overhead_us=overhead,
            tpcc_latency_us=tpcc_latency,
            overhead_pct_of_tpcc=100.0 * overhead / tpcc_latency
            if tpcc_latency else 0.0,
        ))
    return points


def report(points: list[OverheadPoint]) -> None:
    print_table(
        "Appendix F.3: containerization overhead (empty txns, "
        "concurrency control disabled)",
        ["scale factor", "overhead/invocation [usec]",
         "TPC-C latency [usec]", "overhead % of TPC-C"],
        [[p.scale_factor, p.overhead_us, p.tpcc_latency_us,
          round(p.overhead_pct_of_tpcc, 1)] for p in points])


def check(points: list[OverheadPoint]) -> None:
    """Paper shape: a roughly constant ~22 usec per invocation across
    scale factors, a modest fraction (~18%) of TPC-C latency."""
    overheads = [p.overhead_us for p in points]
    # Roughly constant across scale factors (within 25% of the mean).
    mean = sum(overheads) / len(overheads)
    assert all(abs(o - mean) / mean < 0.25 for o in overheads)
    # Same order of magnitude as the paper's ~22 usec.
    assert 10.0 < mean < 45.0
    # A minor fraction of real transaction latency.
    for p in points:
        assert p.overhead_pct_of_tpcc < 50.0
