"""Edge coverage: container routing, worker deadlines, experiment
helpers, and TPC-C recovery."""

import pytest

from repro.bench.harness import run_measurement
from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    ContainerSpec,
    DeploymentConfig,
    shared_nothing,
)
from repro.durability import enable_durability, recover, take_checkpoint
from repro.experiments import common
from repro.runtime.transaction import CATEGORIES, RootTransaction
from repro.sim.machine import OPTERON_6274
from repro.workloads import tpcc
from tests.conftest import ACCOUNT, account_name, make_bank


class TestContainerRouting:
    def test_round_robin_over_unpinned_reactors(self):
        # A container with several executors and unpinned reactors
        # load-balances sub-calls round-robin.
        deployment = DeploymentConfig(
            name="multi-exec", containers=[ContainerSpec(executors=3)])
        database = ReactorDatabase(
            deployment, [(account_name(i), ACCOUNT) for i in range(3)])
        container = database.containers[0]
        reactor = database.reactor("acct0")
        first = container.route(reactor)
        second = container.route(reactor)
        third = container.route(reactor)
        fourth = container.route(reactor)
        assert {first, second, third} == set(container.executors)
        assert fourth is first

    def test_pinned_reactor_always_routes_home(self):
        database = make_bank(shared_nothing(3))
        reactor = database.reactor("acct0")
        container = reactor.container
        for __ in range(3):
            assert container.route(reactor) is reactor.pinned_executor


class TestLatencyBreakdownCategories:
    """``RootTransaction.charge`` used to mint a key for any string it
    was handed (``breakdown.get(category, 0.0)``), and the typo then
    leaked into ``TxnStats.breakdown``."""

    def test_unknown_category_raises_at_the_call_site(self):
        root = RootTransaction(1, "proc", "reactor", 0.0)
        with pytest.raises(KeyError):
            root.charge("sync_excution", 1.0)
        assert set(root.breakdown) == set(CATEGORIES)

    def test_every_category_is_accepted_and_reported(self):
        root = RootTransaction(1, "proc", "reactor", 0.0)
        for index, category in enumerate(CATEGORIES):
            root.charge(category, 1.0 + index)
            root.charge(category, 0.5)
        stats = root.make_stats(10.0, True, None)
        assert list(stats.breakdown) == list(CATEGORIES)
        assert stats.breakdown == {
            category: 1.5 + index
            for index, category in enumerate(CATEGORIES)}
        # The stats own a copy: later charges do not reach them.
        root.charge("cs", 100.0)
        assert stats.breakdown["cs"] == 2.5

    def test_executed_roots_report_exactly_the_categories(self):
        database = make_bank(shared_nothing(3))
        seen = []
        for name, proc, args in (("acct0", "get_balance", ()),
                                 ("acct1", "transfer", ("acct2", 1.0)),
                                 ("acct2", "credit", (-1e9,))):
            database.submit(
                name, proc, *args,
                on_done=lambda root, committed, reason, result:
                seen.append(root.make_stats(0.0, committed, reason)))
        database.scheduler.run()
        # Two commits (one spanning containers) and one user abort.
        assert sorted(stats.committed for stats in seen) == \
            [False, True, True]
        for stats in seen:
            assert set(stats.breakdown) == set(CATEGORIES)


class TestWorkerBehavior:
    def test_worker_stops_at_deadline(self):
        database = make_bank(shared_nothing(3))

        def factory(worker_id):
            return lambda worker: ("acct0", "get_balance", ())

        result = run_measurement(database, 1, factory,
                                 warmup_us=0.0, measure_us=2_000.0,
                                 n_epochs=2)
        worker = result.workers[0]
        # No transaction was *issued* after the deadline.
        assert all(s.start <= 2_000.0 for s in worker.stats)
        # The simulation drained completely.
        assert database.scheduler.pending() == 0

    def test_factory_none_stops_early(self):
        database = make_bank(shared_nothing(3))
        issued = {"n": 0}

        def factory(worker_id):
            def gen(worker):
                if issued["n"] >= 3:
                    return None
                issued["n"] += 1
                return ("acct0", "get_balance", ())
            return gen

        result = run_measurement(database, 1, factory,
                                 warmup_us=0.0, measure_us=50_000.0,
                                 n_epochs=1)
        assert result.workers[0].issued == 3


class TestExperimentHelpers:
    def test_spread_destinations_cycle_containers(self):
        dsts = common.spread_destinations(7, customers_per_container=10)
        containers = [int(d[4:]) // 10 for d in dsts]
        assert containers == [0, 1, 2, 3, 4, 5, 6]

    def test_spread_reuses_containers_beyond_n(self):
        dsts = common.spread_destinations(9, customers_per_container=10)
        # Destination 7 wraps to container 0 with a fresh slot.
        assert dsts[7] != dsts[0]
        assert int(dsts[7][4:]) // 10 == 0

    def test_tpcc_deployment_names(self):
        for strategy in common.STRATEGIES:
            deployment = common.tpcc_deployment(strategy, 2)
            assert deployment.total_executors == 2
        with pytest.raises(ValueError):
            common.tpcc_deployment("psychic", 2)

    def test_tpcc_database_loads(self):
        scale = tpcc.TpccScale(districts=2, customers_per_district=5,
                               items=10, orders_per_district=4)
        database = common.tpcc_database("shared-nothing-async", 2,
                                        scale=scale)
        assert len(database.table_rows(tpcc.warehouse_name(1),
                                       "district")) == 2


class TestTpccRecovery:
    def test_recovery_preserves_tpcc_consistency(self):
        scale = tpcc.TpccScale(districts=2, customers_per_district=10,
                               items=20, orders_per_district=5,
                               last_names=4)
        database = ReactorDatabase(
            shared_nothing(2, machine=OPTERON_6274),
            tpcc.declarations(2))
        tpcc.load(database, 2, scale)
        durability = enable_durability(database)

        workload = tpcc.TpccWorkload(n_warehouses=2, scale=scale)
        run_measurement(database, 2, workload.factory_for,
                        warmup_us=1_000.0, measure_us=20_000.0,
                        n_epochs=2)
        tpcc.check_database(database, 2)

        # The checkpoint is the initial load image (logging started
        # right after it); recovery = image + full redo log.
        pristine = ReactorDatabase(shared_nothing(
            2, machine=OPTERON_6274), tpcc.declarations(2))
        tpcc.load(pristine, 2, scale)
        checkpoint = take_checkpoint(pristine)

        recovered = recover(
            shared_nothing(2, machine=OPTERON_6274),
            tpcc.declarations(2), checkpoint,
            durability.logs.values()).database
        tpcc.check_database(recovered, 2)
        for table in ("district", "orders", "order_line", "stock",
                      "customer", "new_order", "warehouse"):
            assert recovered.table_rows(tpcc.warehouse_name(1),
                                        table) == \
                database.table_rows(tpcc.warehouse_name(1), table)
