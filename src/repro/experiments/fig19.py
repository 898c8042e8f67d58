"""Figure 19 (Appendix G): query- vs. procedure-level parallelism.

The digital currency exchange of Figure 1 with 15 providers and one
exchange over 16 transaction executors, single worker, sweeping the
computational load of ``sim_risk`` (number of random draws per
provider).  Expected shape: ``sequential`` and ``query-parallelism``
grow linearly with 15x the per-provider sim_risk cost (sim_risk is
sequential at the exchange in both), while ``procedure-parallelism``
grows with ~1x and wins by close to an order of magnitude at 10^6
randoms.
"""

from __future__ import annotations

from repro.bench.harness import single_worker_latency
from repro.bench.report import print_series
from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    ContainerSpec,
    DeploymentConfig,
    ExplicitPlacement,
    shared_nothing,
)
from repro.sim.machine import OPTERON_6274
from repro.workloads import exchange as ex

N_PROVIDERS = 15
STRATEGIES = ("query-parallelism", "procedure-parallelism",
              "sequential")


def _sequential_db(orders_per_provider: int,
                   window: int) -> ReactorDatabase:
    deployment = DeploymentConfig(
        name="sequential",
        containers=[ContainerSpec(executors=1, mpl=1)],
        routing="affinity", pin_reactors=True,
        machine=OPTERON_6274)
    database = ReactorDatabase(
        deployment, [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)])
    ex.load_classic(database, N_PROVIDERS, partitioned=False,
                    orders_per_provider=orders_per_provider,
                    window=window)
    return database


def _query_parallel_db(orders_per_provider: int,
                       window: int) -> ReactorDatabase:
    mapping = {ex.EXCHANGE_NAME: 0}
    declarations = [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)]
    for i in range(N_PROVIDERS):
        mapping[ex.fragment_name(i)] = i + 1
        declarations.append((ex.fragment_name(i), ex.ORDERS_FRAGMENT))
    deployment = shared_nothing(
        N_PROVIDERS + 1, machine=OPTERON_6274,
        placement=ExplicitPlacement(mapping))
    database = ReactorDatabase(deployment, declarations)
    ex.load_classic(database, N_PROVIDERS, partitioned=True,
                    orders_per_provider=orders_per_provider,
                    window=window)
    return database


def _procedure_parallel_db(orders_per_provider: int,
                           window: int) -> ReactorDatabase:
    mapping = {ex.EXCHANGE_NAME: 0}
    declarations = [(ex.EXCHANGE_NAME, ex.EXCHANGE)]
    for i in range(N_PROVIDERS):
        mapping[ex.provider_name(i)] = i + 1
        declarations.append((ex.provider_name(i), ex.PROVIDER))
    deployment = shared_nothing(
        N_PROVIDERS + 1, machine=OPTERON_6274,
        placement=ExplicitPlacement(mapping))
    database = ReactorDatabase(deployment, declarations)
    ex.load_reactor_model(database, N_PROVIDERS,
                          orders_per_provider=orders_per_provider,
                          window=window)
    return database


_BUILDERS = {
    "sequential": (_sequential_db, "auth_pay_sequential"),
    "query-parallelism": (_query_parallel_db, "auth_pay_query_parallel"),
    "procedure-parallelism": (_procedure_parallel_db, "auth_pay"),
}


QUICK = dict(random_loads=(10, 1000, 100_000, 1_000_000), n_txns=10,
             orders_per_provider=600, window=200)


def run(random_loads: tuple[int, ...] = (10, 100, 1000, 10_000,
                                         100_000, 1_000_000),
        n_txns: int = 20,
        orders_per_provider: int = 1000,
        window: int = 400) -> dict[str, dict[int, float]]:
    """Returns {strategy: {randoms per provider: latency in msec}}."""
    results: dict[str, dict[int, float]] = {}
    for strategy in STRATEGIES:
        builder, proc = _BUILDERS[strategy]
        series: dict[int, float] = {}
        for randoms in random_loads:
            database = builder(orders_per_provider, window)

            def factory(worker):
                provider = ex.provider_name(
                    worker.rng.randrange(N_PROVIDERS))
                return (ex.EXCHANGE_NAME, proc,
                        (provider, worker.rng.randrange(1000), 1.0,
                         randoms))

            result = single_worker_latency(database, factory,
                                           n_txns=n_txns,
                                           warmup_txns=3)
            series[randoms] = result.summary.latency_us / 1000.0
        results[strategy] = series
    return results


def report(results: dict[str, dict[int, float]]) -> None:
    print_series("Figure 19: auth_pay latency vs sim_risk load "
                 "(15 providers, 16 executors)",
                 "randoms/provider", results, unit="msec")


def check(results: dict[str, dict[int, float]]) -> None:
    """Paper shape: at 10^6 draws per provider procedure-parallelism
    wins by roughly an order of magnitude (8.14x / 8.57x in the
    paper)."""
    heavy = 1_000_000
    seq = results["sequential"][heavy]
    query = results["query-parallelism"][heavy]
    proc = results["procedure-parallelism"][heavy]
    # Order-of-magnitude win for holistic procedure parallelization.
    assert seq / proc > 5.0
    assert query / proc > 5.0
    # Query parallelism beats sequential when compute is light
    # (the parallel scan; paper tunes this to ~4x).
    light = 10
    assert results["sequential"][light] > \
        2.0 * results["query-parallelism"][light]
    # Procedure-parallelism is the most resilient to load growth.
    growth_proc = proc / results["procedure-parallelism"][light]
    growth_seq = seq / results["sequential"][light]
    assert growth_seq > 3.0 * growth_proc
