"""Figure 5: latency vs. transaction size and program formulation.

Multi-transfer on the Smallbank rig: one worker, seven shared-nothing
containers, destination ``i`` on container ``i mod 7`` (the first
destination shares the source's container, so a size-1 transfer is
fully local — the effect Figure 6 remarks on).  The paper's observed
ordering — fully-sync slowest, latency dropping with increasing
asynchronicity, opt fastest — is the reproduction target.
"""

from __future__ import annotations

from repro.bench.harness import single_worker_latency
from repro.bench.report import print_series
from repro.experiments.common import (
    smallbank_database,
    spread_destinations,
)
from repro.workloads import smallbank


QUICK = dict(sizes=(1, 2, 3, 4, 5, 6, 7), n_txns=60,
             customers_per_container=60)


def run(sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
        variants: tuple[str, ...] = smallbank.VARIANTS,
        n_txns: int = 100,
        customers_per_container: int = 200
        ) -> dict[str, dict[int, float]]:
    """Returns {variant: {size: avg latency in microseconds}}."""
    results: dict[str, dict[int, float]] = {v: {} for v in variants}
    for variant in variants:
        for size in sizes:
            database = smallbank_database(customers_per_container)
            src = smallbank.reactor_name(0)
            dsts = spread_destinations(
                size, customers_per_container)
            spec = smallbank.multi_transfer_spec(variant, src, dsts)
            result = single_worker_latency(
                database, lambda worker: spec, n_txns=n_txns)
            results[variant][size] = result.summary.latency_us
    return results


def report(results: dict[str, dict[int, float]]) -> None:
    print_series(
        "Figure 5: multi-transfer latency vs size and formulation",
        "txn size", results, unit="usec")


def check(results: dict[str, dict[int, float]]) -> None:
    """Paper shape (Section 4.2.1): fully-sync slowest, latency drops
    as asynchronicity increases, opt fastest (86 usec -> 25 usec at
    size 7 in the paper)."""
    for size in sorted(results["fully-sync"])[2:]:
        assert results["fully-sync"][size] > \
            results["partially-async"][size]
        assert results["partially-async"][size] > \
            results["fully-async"][size]
        assert results["fully-async"][size] > results["opt"][size] * 0.9
    # Linear growth of fully-sync; opt much flatter.
    sync_growth = results["fully-sync"][7] - results["fully-sync"][1]
    opt_growth = results["opt"][7] - results["opt"][1]
    assert sync_growth > 2.5 * opt_growth
