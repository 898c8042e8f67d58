"""Figures 9 and 10: asynchronicity trade-offs under load.

100% new-order transactions at scale factor 8 with every item drawn
from a remote warehouse and an artificial 300-400 us stock
replenishment computation per item (the "new-order-delay" variant).
At light load, shared-nothing-async roughly doubles
shared-everything-with-affinity's throughput by running the delayed
stock updates in parallel across warehouse reactors; as workers
saturate the executors, the overhead of sub-transaction dispatch makes
shared-everything-with-affinity overtake — the crossover the paper
highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import run_measurement
from repro.bench.report import print_series
from repro.experiments.common import tpcc_database
from repro.workloads import tpcc

DELAY_RANGE = (300.0, 400.0)
DEPLOYMENTS = ("shared-nothing-async", "shared-everything-with-affinity")


@dataclass
class DelayPoint:
    strategy: str
    workers: int
    throughput_tps: float
    latency_ms: float
    abort_rate: float


QUICK = dict(scale_factor=8, worker_counts=(1, 2, 4, 6, 8),
             measure_us=200_000.0, n_epochs=4)


def run(scale_factor: int = 8,
        worker_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
        measure_us: float = 300_000.0,
        n_epochs: int = 5) -> list[DelayPoint]:
    points = []
    for strategy in DEPLOYMENTS:
        for workers in worker_counts:
            database = tpcc_database(strategy, scale_factor)
            workload = tpcc.TpccWorkload(
                n_warehouses=scale_factor,
                mix=tpcc.NEW_ORDER_ONLY,
                remote_item_prob=1.0,
                invalid_item_prob=0.0,
                delay_range=DELAY_RANGE,
            )
            result = run_measurement(
                database, workers, workload.factory_for,
                warmup_us=measure_us * 0.1, measure_us=measure_us,
                n_epochs=n_epochs)
            summary = result.summary
            points.append(DelayPoint(
                strategy=strategy,
                workers=workers,
                throughput_tps=summary.throughput_tps,
                latency_ms=summary.latency_ms,
                abort_rate=summary.abort_rate,
            ))
    return points


def report(points: list[DelayPoint]) -> None:
    tput = {}
    lat = {}
    for p in points:
        tput.setdefault(p.strategy, {})[p.workers] = p.throughput_tps
        lat.setdefault(p.strategy, {})[p.workers] = p.latency_ms
    print_series("Figure 9: new-order-delay throughput vs load "
                 "(scale factor 8)", "workers", tput, unit="txn/sec")
    print_series("Figure 10: new-order-delay latency vs load "
                 "(scale factor 8)", "workers", lat, unit="msec")


def check(points: list[DelayPoint]) -> None:
    """Paper shape: the architectures cross over as load grows."""
    def tput(strategy):
        return {p.workers: p.throughput_tps for p in points
                if p.strategy == strategy}

    sn = tput("shared-nothing-async")
    se = tput("shared-everything-with-affinity")

    # Light load: asynchronicity wins big (paper: 2x at one worker).
    assert sn[1] > se[1] * 1.5
    # The advantage shrinks (or reverses) as workers saturate cores.
    ratio_light = sn[1] / se[1]
    ratio_heavy = sn[8] / se[8]
    assert ratio_heavy < ratio_light * 0.7
