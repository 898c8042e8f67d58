"""Figure 12 (Appendix B.2): varying the degree of physical
distribution.

fully-sync multi-transfer of fixed size 7; the seven destination
accounts are chosen so as to span ``k`` transaction executors, for
``k`` from 1 to 7, under three selection policies:

* ``round-robin remote`` — ``7 - k + 1`` destinations on the source's
  container, ``k - 1`` spread one-per-container over the rest: remote
  calls grow exactly by one per step;
* ``round-robin all`` — destination ``i`` on container ``i mod k``:
  remote-call counts move in the paper's characteristic steps
  (3, 4, 5, 5, 5, 6 for k = 2..7);
* ``random`` — destinations uniform over all containers (expected
  remote calls ≈ 6; plotted flat against k).
"""

from __future__ import annotations

import random

from repro.bench.harness import single_worker_latency
from repro.bench.report import print_series
from repro.experiments.common import (
    SMALLBANK_CONTAINERS,
    smallbank_database,
    smallbank_destination,
)
from repro.workloads import smallbank

SIZE = 7


def _round_robin_remote(k: int, cpc: int) -> list[str]:
    local = SIZE - k + 1
    dsts = [smallbank_destination(0, 1 + i, cpc) for i in range(local)]
    dsts += [smallbank_destination(1 + i, 1, cpc)
             for i in range(k - 1)]
    return dsts


def _round_robin_all(k: int, cpc: int) -> list[str]:
    return [smallbank_destination(i % k, 1 + i // k, cpc)
            for i in range(SIZE)]


def _random_spread(cpc: int, seed: int = 13) -> list[str]:
    rng = random.Random(seed)
    dsts = []
    used: dict[int, int] = {}
    for __ in range(SIZE):
        container = rng.randrange(SMALLBANK_CONTAINERS)
        used[container] = used.get(container, 0) + 1
        dsts.append(smallbank_destination(container, used[container],
                                          cpc))
    return dsts


QUICK = dict(executor_counts=(1, 2, 3, 4, 5, 6, 7), n_txns=60,
             customers_per_container=60)


def run(executor_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
        n_txns: int = 100, customers_per_container: int = 200
        ) -> dict[str, dict[int, float]]:
    src = smallbank.reactor_name(0)

    def measure(dsts: list[str]) -> float:
        database = smallbank_database(customers_per_container)
        spec = smallbank.multi_transfer_spec("fully-sync", src, dsts)
        result = single_worker_latency(database, lambda worker: spec,
                                       n_txns=n_txns)
        return result.summary.latency_us

    results: dict[str, dict[int, float]] = {
        "round-robin remote": {}, "round-robin all": {}, "random": {},
    }
    random_latency = measure(_random_spread(customers_per_container))
    for k in executor_counts:
        results["round-robin remote"][k] = measure(
            _round_robin_remote(k, customers_per_container))
        results["round-robin all"][k] = measure(
            _round_robin_all(k, customers_per_container))
        results["random"][k] = random_latency
    return results


def report(results: dict[str, dict[int, float]]) -> None:
    print_series("Figure 12: latency vs distribution of target "
                 "reactors (size 7, fully-sync)",
                 "executors spanned", results, unit="usec")


def check(results: dict[str, dict[int, float]]) -> None:
    """Paper shape: round-robin remote grows smoothly by one remote
    call per executor spanned; random sits flat near the 6-7
    remote-call level."""
    rr_remote = results["round-robin remote"]
    # Monotone growth: each spanned executor adds one remote call.
    values = [rr_remote[k] for k in sorted(rr_remote)]
    assert all(b >= a - 1.0 for a, b in zip(values, values[1:]))
    assert values[-1] > values[0] * 1.5

    # Random sits near the high end (expected ~6 remote calls).
    random_latency = results["random"][7]
    assert random_latency > rr_remote[4]
