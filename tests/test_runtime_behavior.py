"""Runtime behavior: futures, cooperative multitasking, MPL,
latency-breakdown attribution, cache-affinity accounting."""

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.core.reactor import ReactorType
from repro.errors import SimulationError
from repro.relational import float_col, make_schema, str_col
from repro.runtime.futures import SimFuture
from tests.conftest import make_bank


class TestSimFuture:
    def test_resolve_and_result(self):
        fut = SimFuture(remote=True, target_reactor="r")
        fut.resolve(42)
        assert fut.resolved
        assert fut.result() == 42
        assert fut.consumed

    def test_fail_raises_on_result(self):
        fut = SimFuture(remote=True, target_reactor="r")
        error = ValueError("boom")
        fut.fail(error)
        with pytest.raises(ValueError):
            fut.result()

    def test_double_resolve_rejected(self):
        fut = SimFuture(remote=False, target_reactor="r")
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_waiter_fires_on_resolution(self):
        fut = SimFuture(remote=True, target_reactor="r")
        seen = []
        fut.add_waiter(seen.append)
        assert not seen
        fut.resolve(5)
        assert seen == [fut]

    def test_waiter_fires_immediately_if_already_resolved(self):
        fut = SimFuture(remote=True, target_reactor="r")
        fut.resolve(5)
        seen = []
        fut.add_waiter(seen.append)
        assert seen == [fut]

    def test_single_waiter_only(self):
        fut = SimFuture(remote=True, target_reactor="r")
        fut.add_waiter(lambda f: None)
        with pytest.raises(SimulationError):
            fut.add_waiter(lambda f: None)

    def test_unresolved_result_rejected(self):
        fut = SimFuture(remote=True, target_reactor="r")
        with pytest.raises(SimulationError):
            fut.result()


class TestBreakdownAttribution:
    def _run_and_stats(self, database, reactor, proc, *args):
        box = {}

        def on_done(root, committed, reason, result):
            box["stats"] = root.make_stats(
                database.scheduler.now, committed, reason)

        database.submit(reactor, proc, *args, on_done=on_done)
        database.scheduler.run()
        return box["stats"]

    def test_remote_transfer_pays_cs_and_cr(self, bank_sn):
        stats = self._run_and_stats(bank_sn, "acct0", "transfer",
                                    "acct5", 1.0)
        costs = bank_sn.costs
        assert stats.breakdown["cs"] == pytest.approx(costs.cs)
        assert stats.breakdown["cr"] == pytest.approx(costs.cr)
        assert stats.remote_calls == 1
        assert stats.containers == 2

    def test_inline_transfer_pays_no_communication(self,
                                                   bank_se_affinity):
        stats = self._run_and_stats(bank_se_affinity, "acct0",
                                    "transfer", "acct5", 1.0)
        assert stats.breakdown["cs"] == 0.0
        assert stats.breakdown["cr"] == 0.0
        assert stats.remote_calls == 0
        assert stats.containers == 1

    def test_immediate_get_wait_is_sync_execution(self, bank_sn):
        stats = self._run_and_stats(bank_sn, "acct0", "transfer",
                                    "acct5", 1.0)
        # transfer gets no other work between call and frame end, but
        # it debits before the implicit join: classified async.
        assert stats.breakdown["sync_execution"] > 0

    def test_fan_out_overlap_recorded(self, bank_sn):
        stats = self._run_and_stats(
            bank_sn, "acct0", "fan_out", ["acct1", "acct2", "acct4"],
            1.0)
        assert stats.remote_calls >= 2
        total = stats.breakdown["cs"]
        assert total == pytest.approx(
            bank_sn.costs.cs * stats.remote_calls)

    def test_compute_charges_sync_execution(self, bank_sn):
        stats = self._run_and_stats(bank_sn, "acct0", "busy_work",
                                    250.0)
        assert stats.breakdown["sync_execution"] >= 250.0

    def test_breakdown_stacks_to_latency(self, bank_sn):
        stats = self._run_and_stats(bank_sn, "acct0", "transfer",
                                    "acct5", 1.0)
        stacked = sum(stats.breakdown.values())
        # Client-side costs are added by workers, not db.submit; the
        # rest must account for (almost all of) the latency.
        assert stacked == pytest.approx(stats.latency, rel=0.25)

    def test_reads_writes_counted(self, bank_sn):
        stats = self._run_and_stats(bank_sn, "acct0", "transfer",
                                    "acct5", 1.0)
        assert stats.reads >= 2
        assert stats.writes == 2


class TestCooperativeMultitasking:
    def test_executor_overlaps_blocked_transactions(self):
        """While one txn waits on a remote sub-txn, its executor must
        process another (cooperative multitasking): pipelined
        submission beats strictly sequential execution."""
        pipelined = make_bank(shared_nothing(2, mpl=4))
        done = []
        for i in range(4):
            pipelined.submit(
                "acct0", "transfer", "acct1", 1.0,
                on_done=lambda *a, i=i: done.append(i))
        pipelined.scheduler.run()
        assert len(done) == 4

        sequential = make_bank(shared_nothing(2, mpl=4))
        for __ in range(4):
            sequential.run("acct0", "transfer", "acct1", 1.0)
        assert pipelined.scheduler.now < sequential.scheduler.now

    def test_mpl_one_still_admits_while_blocked(self):
        """Blocked tasks release their slot (the paper's thread
        hand-off), so MPL=1 does not deadlock on nested calls."""
        database = make_bank(shared_nothing(2, mpl=1))
        done = []
        # acct0 -> acct1 and acct1 -> acct0 concurrently: each executor
        # has a blocked task while the other's sub-txn arrives.
        database.submit("acct0", "transfer", "acct1", 1.0,
                        on_done=lambda *a: done.append("a"))
        database.submit("acct1", "transfer", "acct0", 2.0,
                        on_done=lambda *a: done.append("b"))
        database.scheduler.run()
        assert sorted(done) == ["a", "b"]

    def test_utilization_accounting(self):
        database = make_bank(shared_nothing(2))
        database.run("acct0", "busy_work", 1000.0)
        executor = database.reactor("acct0").pinned_executor
        assert executor.busy_time >= 1000.0
        assert executor.requests_served >= 1


class TestCacheAffinity:
    def test_cold_access_costs_more(self):
        database = make_bank(shared_nothing(2))
        # First transaction warms acct0 on its executor.
        database.run("acct0", "get_balance")
        start = database.scheduler.now
        database.run("acct0", "get_balance")
        warm = database.scheduler.now - start
        # Flush the reactor's cache warmth (as if evicted).
        database.reactor("acct0").mark_cold()
        start = database.scheduler.now
        database.run("acct0", "get_balance")
        cold = database.scheduler.now - start
        assert cold > warm

    def test_first_touch_rewarns_reactor(self):
        database = make_bank(shared_nothing(2))
        database.reactor("acct0").mark_cold()
        database.run("acct0", "get_balance")
        executor = database.reactor("acct0").pinned_executor
        assert database.reactor("acct0").core_heat[
            executor.core_id] == 1.0

    def test_heat_decays_with_other_cores(self):
        database = make_bank(shared_nothing(2))
        reactor = database.reactor("acct0")
        assert reactor.touch(0) == 0.0
        assert reactor.touch(1) == 0.0
        # Returning to core 0 after one intervening touch: partially
        # warm (one decay step).
        assert 0.0 < reactor.touch(0) < 1.0


class TestProcedureForms:
    def test_plain_function_procedure(self):
        """Procedures without yields (pure local logic) are allowed."""
        plain = ReactorType("Plain", lambda: [
            make_schema("kv", [str_col("k"), float_col("v")], ["k"]),
        ])

        @plain.procedure
        def put(ctx, key, value):
            ctx.insert("kv", {"k": key, "v": value})
            return value

        database = ReactorDatabase(shared_nothing(1), [("p", plain)])
        assert database.run("p", "put", "x", 1.5) == 1.5
        assert database.table_rows("p", "kv") == [
            {"k": "x", "v": 1.5}]

    def test_procedure_registration_conflict(self):
        rtype = ReactorType("Dup", lambda: [])

        @rtype.procedure
        def proc(ctx):
            return None

        with pytest.raises(Exception):
            rtype.procedure(proc)

    def test_kwargs_passed_through(self, bank_sn):
        result = bank_sn.run("acct0", "credit", amount=10.0)
        assert result == 110.0
