"""Figure 11 (Appendix B.1): local vs. remote destination placement.

fully-sync and opt multi-transfers whose destinations either all live
on the source's container (``-local``) or span all seven containers
(``-remote``).  fully-sync-remote rises sharply (processing *and*
communication per transfer); opt-local vs opt-remote differ only by
partially overlapped communication.
"""

from __future__ import annotations

from repro.bench.harness import single_worker_latency
from repro.bench.report import print_series
from repro.experiments.common import (
    SMALLBANK_CONTAINERS,
    smallbank_database,
    smallbank_destination,
)
from repro.workloads import smallbank


def _local_destinations(size: int, customers_per_container: int):
    return [smallbank_destination(0, 1 + i, customers_per_container)
            for i in range(size)]


def _remote_destinations(size: int, customers_per_container: int):
    """Destination i on container 1 + (i mod 6): never the source's."""
    return [
        smallbank_destination(1 + i % (SMALLBANK_CONTAINERS - 1),
                              1 + i // (SMALLBANK_CONTAINERS - 1),
                              customers_per_container)
        for i in range(size)
    ]


QUICK = dict(sizes=(1, 3, 5, 7), n_txns=60, customers_per_container=60)


def run(sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
        n_txns: int = 100, customers_per_container: int = 200
        ) -> dict[str, dict[int, float]]:
    results: dict[str, dict[int, float]] = {}
    cases = []
    for variant in ("fully-sync", "opt"):
        cases.append((f"{variant}-remote", variant,
                      _remote_destinations))
        cases.append((f"{variant}-local", variant,
                      _local_destinations))
    for label, variant, dst_fn in cases:
        series: dict[int, float] = {}
        for size in sizes:
            database = smallbank_database(customers_per_container)
            src = smallbank.reactor_name(0)
            dsts = dst_fn(size, customers_per_container)
            spec = smallbank.multi_transfer_spec(variant, src, dsts)
            result = single_worker_latency(
                database, lambda worker: spec, n_txns=n_txns)
            series[size] = result.summary.latency_us
        results[label] = series
    return results


def report(results: dict[str, dict[int, float]]) -> None:
    print_series("Figure 11: latency vs size and target reactor "
                 "placement", "txn size", results, unit="usec")


def check(results: dict[str, dict[int, float]]) -> None:
    """Paper shape: the remote penalty (processing *and* per-transfer
    communication) hits fully-sync far harder than opt, whose
    communication overlaps."""
    size = 7
    sync_gap = results["fully-sync-remote"][size] - \
        results["fully-sync-local"][size]
    opt_gap = results["opt-remote"][size] - results["opt-local"][size]
    assert sync_gap > 0
    assert opt_gap >= 0
    # The remote penalty hits fully-sync far harder than opt.
    assert sync_gap > 2.0 * opt_gap
    # Local variants still grow with size (processing cost).
    assert results["fully-sync-local"][7] > \
        results["fully-sync-local"][1]
