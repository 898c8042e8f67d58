"""Appendix F.2: the effect of (losing) affinity.

Scale factor 1, a single client worker, shared-everything-without-
affinity with a growing number of transaction executors.  Round-robin
routing sends the n-th request to executor ``n mod k``, so every
additional executor further destroys cache locality: the paper
measures throughput dropping to 86% with two executors and
progressively to ~40% with sixteen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.experiments.common import tpcc_database
from repro.workloads import tpcc


@dataclass
class AffinityPoint:
    executors: int
    throughput_ktps: float
    relative_pct: float


QUICK = dict(executor_counts=(1, 2, 4, 8, 16), measure_us=50_000.0,
             n_epochs=4)


def run(executor_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
        measure_us: float = 80_000.0,
        n_epochs: int = 5) -> list[AffinityPoint]:
    throughputs = {}
    for n_executors in executor_counts:
        database = tpcc_database(
            "shared-everything-without-affinity", 1,
            n_executors=n_executors)
        workload = tpcc.TpccWorkload(n_warehouses=1)
        result = run_measurement(
            database, 1, workload.factory_for,
            warmup_us=measure_us * 0.1, measure_us=measure_us,
            n_epochs=n_epochs)
        throughputs[n_executors] = result.summary.throughput_ktps
    baseline = throughputs[executor_counts[0]]
    return [
        AffinityPoint(
            executors=n,
            throughput_ktps=tput,
            relative_pct=100.0 * tput / baseline if baseline else 0.0,
        )
        for n, tput in throughputs.items()
    ]


def report(points: list[AffinityPoint]) -> None:
    print_table(
        "Appendix F.2: affinity ablation (TPC-C scale factor 1, "
        "1 worker, round-robin routing)",
        ["executors", "throughput [Ktxn/sec]", "% of 1-executor"],
        [[p.executors, p.throughput_ktps, round(p.relative_pct, 1)]
         for p in points])


def check(points: list[AffinityPoint]) -> None:
    """Paper shape: throughput falls to 86% with two executors and
    progressively to ~40% with sixteen."""
    relative = {p.executors: p.relative_pct for p in points}
    assert relative[1] == 100.0
    # Monotone degradation as routing spreads load thinner.
    assert relative[2] < 100.0
    assert relative[16] < relative[2]
    # Magnitudes in the paper's neighbourhood (86% -> ~40%).
    assert 60.0 < relative[2] < 99.0
    assert 30.0 < relative[16] < 75.0
