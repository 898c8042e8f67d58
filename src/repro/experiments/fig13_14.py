"""Figures 13 and 14 (Appendix C): skew, queueing and the cost model.

YCSB with the 10-key ``multi_update`` transaction at scale factor 4
(40,000 key reactors over four single-executor containers), sweeping
the zipfian constant.  With one worker, latency *decreases* with skew
(more of the sub-transactions become local/inline, and dispatching a
remote update costs more than performing one); the cost model,
calibrated from a single-key profile and fed the average realized
async/local sequence sizes, tracks the curve.  With four workers,
queueing and conflicts raise latency and variance — effects the model
deliberately excludes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import run_measurement, single_worker_latency
from repro.bench.report import print_series
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.costmodel import Calibration, ycsb_multi_update
from repro.sim.machine import XEON_E3_1276
from repro.sim.rng import ZipfianGenerator
from repro.workloads import ycsb

THETAS = (0.01, 0.5, 0.99, 2.0, 5.0)


@dataclass
class SkewPoint:
    theta: float
    workers: int
    latency_us: float
    throughput_ktps: float
    abort_rate: float
    predicted_us: float | None = None
    predicted_with_commit_us: float | None = None


def _database(scale_factor: int, mpl: int = 4) -> ReactorDatabase:
    n_keys = scale_factor * ycsb.KEYS_PER_SCALE_FACTOR
    n_containers = 4
    deployment = shared_nothing(
        n_containers, machine=XEON_E3_1276, mpl=mpl,
        placement=RangePlacement(n_keys // n_containers))
    database = ReactorDatabase(deployment,
                               ycsb.declarations(scale_factor))
    ycsb.load(database, scale_factor)
    return database


def _calibrate(scale_factor: int, n_txns: int) -> Calibration:
    """Single-key profiles: a local one isolates processing, a remote
    one isolates communication (paper: "calibrated ... by profiling
    multi_update with updates to a single key")."""
    local_key = ycsb.key_name(0)
    database = _database(scale_factor)
    result = single_worker_latency(
        database,
        lambda w: (local_key, "multi_update", ([local_key], "u")),
        n_txns=n_txns)
    local_breakdown = result.summary.breakdown
    leaf = local_breakdown["sync_execution"]

    remote_key = ycsb.key_name(
        scale_factor * ycsb.KEYS_PER_SCALE_FACTOR - 1)
    database = _database(scale_factor)
    result = single_worker_latency(
        database,
        lambda w: (local_key, "multi_update", ([remote_key], "u")),
        n_txns=n_txns)
    remote = result.summary
    cs = remote.breakdown["cs"]
    commit = remote.breakdown["commit_input_gen"]
    # Everything one remote update costs beyond processing, send and
    # commit is the effective receive path (absorbing transport and
    # wake-up overheads into Cr, as calibration from profiles does).
    cr = max(0.0, remote.latency_us - cs - commit - leaf)
    return Calibration(cs=cs, cr=cr, leaf_exec=leaf,
                       commit_input_gen=commit)


def _realized_shape(theta: float, scale_factor: int,
                    samples: int = 2000, seed: int = 5
                    ) -> tuple[float, float]:
    """Average realized (n_async_remote, n_local) under the zipfian."""
    workload = ycsb.YcsbWorkload(scale_factor, theta, n_containers=4,
                                 seed=seed)
    rng = random.Random(f"shape/{seed}")
    zipf = ZipfianGenerator(workload.n_keys, theta, rng)
    total_remote = 0
    total_local = 0
    for __ in range(samples):
        draws = [zipf.next() for __ in range(workload.keys_per_txn)]
        distinct = list(dict.fromkeys(draws))
        initiator = distinct[rng.randrange(len(distinct))]
        home = workload.container_of(initiator)
        remote = sum(1 for k in distinct
                     if workload.container_of(k) != home)
        total_remote += remote
        total_local += len(distinct) - remote
    return total_remote / samples, total_local / samples


QUICK = dict(scale_factor=1, thetas=(0.01, 0.5, 0.99, 2.0, 5.0),
             worker_counts=(1, 4), measure_us=40_000.0,
             calibration_txns=60, n_epochs=4)


def run(scale_factor: int = 4,
        thetas: tuple[float, ...] = THETAS,
        worker_counts: tuple[int, ...] = (1, 4),
        measure_us: float = 60_000.0,
        calibration_txns: int = 100,
        n_epochs: int = 5) -> list[SkewPoint]:
    calibration = _calibrate(scale_factor, calibration_txns)
    points = []
    for theta in thetas:
        n_async, n_local = _realized_shape(theta, scale_factor)
        for workers in worker_counts:
            database = _database(scale_factor)
            workload = ycsb.YcsbWorkload(scale_factor, theta,
                                         n_containers=4)
            result = run_measurement(
                database, workers, workload.factory_for,
                warmup_us=measure_us * 0.1, measure_us=measure_us,
                n_epochs=n_epochs)
            summary = result.summary
            point = SkewPoint(
                theta=theta, workers=workers,
                latency_us=summary.latency_us,
                throughput_ktps=summary.throughput_ktps,
                abort_rate=summary.abort_rate,
            )
            if workers == 1:
                spec = ycsb_multi_update(calibration, n_async, n_local)
                point.predicted_us = spec.latency()
                point.predicted_with_commit_us = spec.latency() + \
                    summary.breakdown.get("commit_input_gen", 0.0)
            points.append(point)
    return points


def report(points: list[SkewPoint]) -> None:
    lat: dict[str, dict[float, float]] = {}
    tput: dict[str, dict[float, float]] = {}
    for p in points:
        label = f"{p.workers} worker{'s' if p.workers > 1 else ''} obs"
        lat.setdefault(label, {})[p.theta] = p.latency_us
        tput.setdefault(label, {})[p.theta] = p.throughput_ktps
        if p.predicted_us is not None:
            lat.setdefault("1 worker pred", {})[p.theta] = \
                p.predicted_us
            lat.setdefault("1 worker pred+C+I", {})[p.theta] = \
                p.predicted_with_commit_us
    print_series("Figure 13: YCSB multi_update latency vs skew",
                 "zipfian", lat, unit="usec")
    print_series("Figure 14: YCSB multi_update throughput vs skew",
                 "zipfian", tput, unit="Ktxn/sec")


def check(points: list[SkewPoint]) -> None:
    """Paper shape: one-worker latency *decreases* as skew rises and
    the calibrated model plus measured commit/input-gen tracks it;
    four workers queue, most visibly at high skew."""
    one_worker = {p.theta: p for p in points if p.workers == 1}
    four_workers = {p.theta: p for p in points if p.workers == 4}

    # Latency decreases with skew for a single worker.
    assert one_worker[0.01].latency_us > one_worker[2.0].latency_us
    # Queueing: four workers never beat one worker on latency.
    for theta in one_worker:
        assert four_workers[theta].latency_us >= \
            one_worker[theta].latency_us * 0.9
    # Cost-model fit: pred + commit within 40% of observation.
    for theta, p in one_worker.items():
        assert p.predicted_with_commit_us is not None
        assert abs(p.predicted_with_commit_us - p.latency_us) \
            / p.latency_us < 0.4, theta
