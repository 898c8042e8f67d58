"""Figures 17 and 18 (Appendix F.1): transactional scale-up.

Standard TPC-C mix as warehouses (= reactors = transaction executors
= workers) grow.  Expected shapes: shared-everything-with-affinity and
shared-nothing-async scale nearly linearly and track each other
closely (affinity dominates); shared-everything-without-affinity
scales worst because round-robin routing destroys locality.
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
)


@dataclass
class ScalePoint:
    strategy: str
    scale_factor: int
    throughput_ktps: float
    latency_us: float
    per_core_ktps: float


QUICK = dict(scale_factors=(1, 2, 4, 8, 16), measure_us=40_000.0,
             n_epochs=4)


def run(scale_factors: tuple[int, ...] = (1, 2, 4, 8, 16),
        measure_us: float = 60_000.0,
        n_epochs: int = 5) -> list[ScalePoint]:
    points = []
    for strategy in DEPLOYMENTS:
        for scale_factor in scale_factors:
            database = tpcc_database(strategy, scale_factor)
            workload = tpcc.TpccWorkload(n_warehouses=scale_factor)
            result = run_measurement(
                database, scale_factor, workload.factory_for,
                warmup_us=measure_us * 0.1, measure_us=measure_us,
                n_epochs=n_epochs)
            summary = result.summary
            points.append(ScalePoint(
                strategy=strategy,
                scale_factor=scale_factor,
                throughput_ktps=summary.throughput_ktps,
                latency_us=summary.latency_us,
                per_core_ktps=summary.throughput_ktps / scale_factor,
            ))
    return points


def report(points: list[ScalePoint]) -> None:
    tput = {}
    lat = {}
    for p in points:
        tput.setdefault(p.strategy, {})[p.scale_factor] = \
            p.throughput_ktps
        lat.setdefault(p.strategy, {})[p.scale_factor] = p.latency_us
    print_series("Figure 17: TPC-C throughput vs scale factor",
                 "scale factor", tput, unit="Ktxn/sec")
    print_series("Figure 18: TPC-C latency vs scale factor",
                 "scale factor", lat, unit="usec")


def check(points: list[ScalePoint]) -> None:
    """Paper shape: the two affinity-preserving deployments scale
    near-linearly and track each other; round-robin scales worst."""
    def tput(strategy):
        return {p.scale_factor: p.throughput_ktps for p in points
                if p.strategy == strategy}

    se_aff = tput("shared-everything-with-affinity")
    sn = tput("shared-nothing-async")
    se_rr = tput("shared-everything-without-affinity")

    # Near-linear scaling for the affinity-preserving deployments.
    assert se_aff[16] > 10 * se_aff[1]
    assert sn[16] > 9 * sn[1]
    # The two track each other closely (within 15%).
    for sf in se_aff:
        assert abs(se_aff[sf] - sn[sf]) / se_aff[sf] < 0.15
    # Round-robin scales clearly worse.
    assert se_rr[16] < 0.75 * se_aff[16]
