"""Figures 7 and 8: TPC-C throughput/latency under varying load.

Standard TPC-C mix at scale factor 4 (four warehouse reactors, four
transaction executors in every deployment), client workers swept from
1 to 8 on the Opteron profile.  Expected shapes (Section 4.3.1):

* shared-everything-with-affinity wins throughout (affinity + zero
  migration of control + MPL 1 resilience to conflicts);
* shared-nothing-async close behind (sub-transaction dispatch costs
  on the 1%/15% remote accesses; abort rate rises past 4 workers);
* shared-everything-without-affinity worst (round-robin destroys
  locality; aborts under overload).
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
class LoadPoint:
    strategy: str
    workers: int
    throughput_ktps: float
    latency_us: float
    abort_rate: float
    utilization: dict[int, float]


QUICK = dict(scale_factor=4, worker_counts=(1, 2, 4, 6, 8),
             measure_us=60_000.0, n_epochs=5)


def run(scale_factor: int = 4,
        worker_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
        measure_us: float = 100_000.0,
        n_epochs: int = 5) -> list[LoadPoint]:
    points = []
    for strategy in DEPLOYMENTS:
        for workers in worker_counts:
            database = tpcc_database(strategy, scale_factor)
            workload = tpcc.TpccWorkload(n_warehouses=scale_factor)
            result = run_measurement(
                database, workers, workload.factory_for,
                warmup_us=measure_us * 0.1, measure_us=measure_us,
                n_epochs=n_epochs)
            summary = result.summary
            points.append(LoadPoint(
                strategy=strategy,
                workers=workers,
                throughput_ktps=summary.throughput_ktps,
                latency_us=summary.latency_us,
                abort_rate=summary.abort_rate,
                utilization=result.utilization(),
            ))
    return points


def report(points: list[LoadPoint]) -> None:
    tput = {}
    lat = {}
    aborts = {}
    for p in points:
        tput.setdefault(p.strategy, {})[p.workers] = p.throughput_ktps
        lat.setdefault(p.strategy, {})[p.workers] = p.latency_us
        aborts.setdefault(p.strategy, {})[p.workers] = \
            round(p.abort_rate * 100, 2)
    print_series("Figure 7: TPC-C throughput vs load (scale factor 4)",
                 "workers", tput, unit="Ktxn/sec")
    print_series("Figure 8: TPC-C latency vs load (scale factor 4)",
                 "workers", lat, unit="usec")
    print_series("abort rates (Section 4.3.1 text)",
                 "workers", aborts, unit="%")
    # The paper narrates executor-core utilizations (e.g. S2 grows
    # 83% -> 99% from 4 to 8 workers; S3 at one worker loads mostly
    # the first core): print them for the extreme load points.
    util = {}
    for p in points:
        if p.workers in (1, max(w for w in tput[p.strategy])):
            cores = sorted(p.utilization.items())
            util.setdefault(p.strategy, {})[p.workers] = " ".join(
                f"{100 * u:.0f}%" for __, u in cores)
    for strategy, series in util.items():
        for workers, text in sorted(series.items()):
            print(f"  utilization {strategy} @{workers} workers: "
                  f"{text}")


def check(points: list[LoadPoint]) -> None:
    """Paper shape (Section 4.3.1): affinity wins, shared-nothing-async
    close behind from 1 to 4 workers, round-robin clearly worst; abort
    rates stay near zero for the affinity deployment while rising for
    shared-nothing past 4 workers."""
    def series(strategy, field):
        return {p.workers: getattr(p, field) for p in points
                if p.strategy == strategy}

    se_aff = series("shared-everything-with-affinity",
                    "throughput_ktps")
    sn = series("shared-nothing-async", "throughput_ktps")
    se_rr = series("shared-everything-without-affinity",
                   "throughput_ktps")

    for workers in se_aff:
        assert se_aff[workers] > se_rr[workers]  # affinity matters
    # S2 and S3 are close from 1 to 4 workers (< 20% apart).
    for workers in (1, 2, 4):
        assert abs(se_aff[workers] - sn[workers]) / se_aff[workers] \
            < 0.2
    # Throughput grows with load for the affinity deployment.
    assert se_aff[8] > se_aff[1] * 2

    # Abort behavior: affinity deployment resilient under overload.
    aborts_aff = series("shared-everything-with-affinity",
                        "abort_rate")
    aborts_sn = series("shared-nothing-async", "abort_rate")
    assert aborts_sn[8] > aborts_aff[8]
