"""ReactorDatabase behavior across deployments."""

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    ContainerSpec,
    DeploymentConfig,
    RangePlacement,
    shared_nothing,
)
from repro.errors import (
    DeploymentError,
    TransactionAbort,
    UnknownReactorError,
)
from repro.sim.machine import XEON_E3_1276
from tests.conftest import ACCOUNT, account_name, make_bank


class TestBasics:
    def test_run_returns_procedure_result(self, bank_any):
        assert bank_any.run("acct0", "get_balance") == 100.0

    def test_transfer_moves_money(self, bank_any):
        result = bank_any.run("acct0", "transfer", "acct5", 30.0)
        assert result == 130.0
        assert bank_any.run("acct0", "get_balance") == 70.0
        assert bank_any.run("acct5", "get_balance") == 130.0

    def test_fan_out(self, bank_any):
        bank_any.run("acct0", "fan_out", ["acct1", "acct2", "acct4"],
                     10.0)
        assert bank_any.run("acct0", "get_balance") == 70.0
        for name in ("acct1", "acct2", "acct4"):
            assert bank_any.run(name, "get_balance") == 110.0

    def test_user_abort_rolls_back(self, bank_any):
        with pytest.raises(TransactionAbort):
            bank_any.run("acct0", "credit", -1000.0)
        assert bank_any.run("acct0", "get_balance") == 100.0

    def test_abort_in_subtxn_rolls_back_everything(self, bank_any):
        # The credit succeeds on the destination, then the source debit
        # aborts: nothing may remain applied.
        with pytest.raises(TransactionAbort):
            bank_any.run("acct0", "transfer", "acct5", 150.0)
        assert bank_any.run("acct0", "get_balance") == 100.0
        assert bank_any.run("acct5", "get_balance") == 100.0

    def test_dangerous_structure_aborts_when_async(self, bank_sn):
        # Under shared-nothing the two calls to one reactor are
        # dispatched asynchronously and overlap: the dynamic safety
        # condition must abort the transaction.
        with pytest.raises(TransactionAbort):
            bank_sn.run("acct0", "double_call_same", "acct5")
        assert bank_sn.run("acct5", "get_balance") == 100.0

    def test_same_program_is_safe_when_inlined(self, bank_se_affinity):
        # Under shared-everything both calls execute inline and
        # sequentially — the first sub-transaction completes before
        # the second is invoked, so the (dynamic) condition passes.
        bank_se_affinity.run("acct0", "double_call_same", "acct5")
        assert bank_se_affinity.run("acct5", "get_balance") == 103.0

    def test_unknown_reactor(self, bank_any):
        with pytest.raises(UnknownReactorError):
            bank_any.run("nope", "get_balance")

    def test_unknown_procedure(self, bank_any):
        from repro.errors import UnknownProcedureError
        with pytest.raises(UnknownProcedureError):
            bank_any.run("acct0", "no_such_proc")

    def test_reactor_registry(self, bank_any):
        assert "acct0" in bank_any
        assert "ghost" not in bank_any
        assert len(bank_any.reactor_names()) == 6


class TestVirtualization:
    """The same application must behave identically under any
    deployment (the paper's central virtualization claim)."""

    def test_results_identical_across_deployments(self):
        outcomes = []
        for fixture in ("sn", "se"):
            from repro.core.deployment import (
                shared_everything_with_affinity,
            )
            deployment = shared_nothing(3) if fixture == "sn" else \
                shared_everything_with_affinity(3)
            database = make_bank(deployment)
            database.run("acct0", "transfer", "acct5", 10.0)
            database.run("acct5", "fan_out", ["acct1", "acct2"], 5.0)
            state = {
                name: database.run(name, "get_balance")
                for name in database.reactor_names()
            }
            outcomes.append(state)
        assert outcomes[0] == outcomes[1]

    def test_shared_nothing_pins_reactors(self, bank_sn):
        for name in bank_sn.reactor_names():
            reactor = bank_sn.reactor(name)
            assert reactor.pinned_executor is not None
            assert reactor.pinned_executor in \
                reactor.container.executors

    def test_shared_everything_does_not_pin(self, bank_se_affinity):
        for name in bank_se_affinity.reactor_names():
            assert bank_se_affinity.reactor(name).pinned_executor \
                is None

    def test_latency_reflects_deployment(self):
        # Cross-reactor transfers cost communication under
        # shared-nothing but not under shared-everything.
        times = {}
        for label, deployment in (
                ("sn", shared_nothing(3)),
                ("se", __import__(
                    "repro.core.deployment", fromlist=["x"]
                ).shared_everything_with_affinity(3))):
            database = make_bank(deployment)
            start = database.scheduler.now
            database.run("acct0", "transfer", "acct5", 1.0)
            times[label] = database.scheduler.now - start
        assert times["sn"] > times["se"]


class TestDeploymentValidation:
    def test_too_many_executors_for_machine(self):
        deployment = shared_nothing(XEON_E3_1276.hardware_threads + 1)
        with pytest.raises(DeploymentError):
            ReactorDatabase(deployment, [("a", ACCOUNT)])

    def test_duplicate_reactor_names(self):
        with pytest.raises(DeploymentError):
            ReactorDatabase(shared_nothing(2),
                            [("a", ACCOUNT), ("a", ACCOUNT)])

    def test_placement_out_of_range(self):
        class BadPlacement(RangePlacement):
            def container_for(self, name, index, n_containers):
                return 99

        deployment = DeploymentConfig(
            name="bad", containers=[ContainerSpec()],
            placement=BadPlacement(1))
        with pytest.raises(DeploymentError):
            ReactorDatabase(deployment, [("a", ACCOUNT)])

    def test_range_placement_lays_out_blocks(self):
        deployment = shared_nothing(3, placement=RangePlacement(2))
        database = make_bank(deployment)
        for i in range(6):
            reactor = database.reactor(account_name(i))
            assert reactor.container.container_id == i // 2


class TestObservability:
    def test_utilization_snapshot(self, bank_sn):
        bank_sn.run("acct0", "busy_work", 500.0)
        registry = bank_sn.telemetry.registry
        busy = [registry.value("executor_busy_us", core=e.core_id)
                for e in bank_sn.executors]
        assert busy == [round(e.busy_time, 3) for e in bank_sn.executors]
        assert sum(busy) >= 500.0

    def test_abort_counts(self, bank_sn):
        bank_sn.run("acct0", "transfer", "acct5", 1.0)
        counts = bank_sn.abort_counts()
        assert counts["validations"] >= 1
        assert counts["validation_failures"] == 0

    def test_abort_counts_per_reason_breakdown(self, bank_sn):
        with pytest.raises(TransactionAbort):
            bank_sn.run("acct0", "credit", -1000.0)  # user abort
        counts = bank_sn.abort_counts()
        assert counts["scheme"] == "occ"
        assert counts["by_reason"]["user"] == 1
        assert counts["by_reason"]["validation_failure"] == 0
        assert counts["total_aborts"] == 1

    def test_abort_counts_under_2pl(self):
        database = make_bank(shared_nothing(3, cc_scheme="2pl_nowait"))
        database.run("acct0", "transfer", "acct5", 1.0)
        counts = database.abort_counts()
        assert counts["scheme"] == "2pl_nowait"
        assert counts["validations"] >= 1
        assert set(counts["by_reason"]) >= {
            "validation_failure", "lock_conflict",
            "deadlock_avoidance", "wound", "user"}


class TestRootRouting:
    def _executors_used(self, database, n_txns=6):
        seen = []
        reactor = database.reactor("acct0")
        for __ in range(n_txns):
            seen.append(database._route_root(reactor).executor_id)
        return seen

    def test_round_robin_rotates_executors(self):
        from repro.core.deployment import (
            shared_everything_without_affinity,
        )

        database = make_bank(shared_everything_without_affinity(3))
        assert self._executors_used(database) == [0, 1, 2, 0, 1, 2]

    def test_affinity_routes_to_fixed_executor(self):
        from repro.core.deployment import (
            shared_everything_with_affinity,
        )

        database = make_bank(shared_everything_with_affinity(3))
        assert len(set(self._executors_used(database))) == 1
        # Different reactors spread over executors, but each sticks.
        reactor1 = database.reactor("acct1")
        targets = {database._route_root(reactor1).executor_id
                   for __ in range(4)}
        assert len(targets) == 1

    def test_round_robin_counter_is_database_wide(self):
        from repro.core.deployment import (
            shared_everything_without_affinity,
        )

        database = make_bank(shared_everything_without_affinity(2))
        a = database._route_root(database.reactor("acct0")).executor_id
        b = database._route_root(database.reactor("acct1")).executor_id
        assert [a, b] == [0, 1]
