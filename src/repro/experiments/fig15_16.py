"""Figures 15 and 16 (Appendix E): effect of cross-reactor
transactions.

100% new-order at scale factor 8 with 8 workers (peak load), varying
the probability that a single item comes from a remote warehouse.
Expected shapes: shared-everything deployments degrade only mildly
(cache effects); both shared-nothing variants drop sharply from 0% to
10% (migration-of-control cost); shared-nothing-async stays roughly 2x
better than shared-nothing-sync at 100% cross-reactor transactions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import run_measurement
from repro.bench.report import print_series
from repro.experiments.common import tpcc_database
from repro.workloads import tpcc

DEPLOYMENTS = (
    "shared-everything-without-affinity",
    "shared-nothing-async",
    "shared-everything-with-affinity",
    "shared-nothing-sync",
)


@dataclass
class CrossReactorPoint:
    strategy: str
    cross_pct: int
    throughput_ktps: float
    latency_us: float
    abort_rate: float


QUICK = dict(scale_factor=8, cross_pcts=(0, 10, 50, 100),
             measure_us=50_000.0, n_epochs=4)


def run(scale_factor: int = 8,
        cross_pcts: tuple[int, ...] = (0, 10, 20, 30, 40, 50, 100),
        workers: int | None = None,
        measure_us: float = 80_000.0,
        n_epochs: int = 5) -> list[CrossReactorPoint]:
    workers = workers or scale_factor
    points = []
    for strategy in DEPLOYMENTS:
        for pct in cross_pcts:
            database = tpcc_database(strategy, scale_factor)
            workload = tpcc.TpccWorkload(
                n_warehouses=scale_factor,
                mix=tpcc.NEW_ORDER_ONLY,
                remote_item_prob=pct / 100.0,
                invalid_item_prob=0.0,
                sync_remote=(strategy == "shared-nothing-sync"),
            )
            result = run_measurement(
                database, workers, workload.factory_for,
                warmup_us=measure_us * 0.1, measure_us=measure_us,
                n_epochs=n_epochs)
            summary = result.summary
            points.append(CrossReactorPoint(
                strategy=strategy, cross_pct=pct,
                throughput_ktps=summary.throughput_ktps,
                latency_us=summary.latency_us,
                abort_rate=summary.abort_rate,
            ))
    return points


def report(points: list[CrossReactorPoint]) -> None:
    tput = {}
    lat = {}
    for p in points:
        tput.setdefault(p.strategy, {})[p.cross_pct] = \
            p.throughput_ktps
        lat.setdefault(p.strategy, {})[p.cross_pct] = p.latency_us
    print_series("Figure 15: new-order throughput vs % cross-reactor "
                 "(scale factor 8)", "% cross", tput, unit="Ktxn/sec")
    print_series("Figure 16: new-order latency vs % cross-reactor "
                 "(scale factor 8)", "% cross", lat, unit="usec")


def check(points: list[CrossReactorPoint]) -> None:
    """Paper shape: shared-everything degrades gradually; both
    shared-nothing variants drop sharply from 0% to 10%; async holds
    roughly a 2x latency advantage over sync at 100%."""
    def latency(strategy):
        return {p.cross_pct: p.latency_us for p in points
                if p.strategy == strategy}

    sn_async = latency("shared-nothing-async")
    sn_sync = latency("shared-nothing-sync")
    se_aff = latency("shared-everything-with-affinity")

    # Shared-nothing variants match shared-everything at 0%.
    assert abs(sn_async[0] - se_aff[0]) / se_aff[0] < 0.35
    # Clear latency penalty appears from 0% to 10% for shared-nothing
    # (the migration-of-control cost of sub-transaction dispatch).
    assert sn_async[10] > sn_async[0] * 1.1
    # Async resilience: ~2x better latency than sync at 100%.
    assert sn_sync[100] > 1.5 * sn_async[100]
    # Shared-everything-with-affinity degrades only mildly.
    assert se_aff[100] < se_aff[0] * 1.6
