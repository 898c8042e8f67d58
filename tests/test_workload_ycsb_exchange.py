"""YCSB and currency-exchange workload tests."""

import random

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.workloads import exchange as ex
from repro.workloads import ycsb


def small_ycsb(n_keys=40, n_containers=4):
    """A scaled-down YCSB database (the real loader builds 10k keys
    per scale factor; tests use a handful)."""
    deployment = shared_nothing(
        n_containers, placement=RangePlacement(n_keys // n_containers))
    names = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(n_keys)]
    database = ReactorDatabase(deployment, names)
    for i in range(n_keys):
        database.load(ycsb.key_name(i), "kv",
                      [{"key": ycsb.key_name(i),
                        "value": "x" * ycsb.RECORD_SIZE}])
    return database


class TestYcsb:
    def test_read_one(self):
        db = small_ycsb()
        value = db.run(ycsb.key_name(0), "read_one")
        assert value == "x" * ycsb.RECORD_SIZE

    def test_update_one_rmw(self):
        db = small_ycsb()
        new_value = db.run(ycsb.key_name(0), "update_one", "Z")
        assert new_value.startswith("Z")
        assert len(new_value) == ycsb.RECORD_SIZE

    def test_multi_update_mixed_local_remote(self):
        db = small_ycsb()
        keys = [ycsb.key_name(i) for i in (0, 1, 15, 25, 35)]
        db.run(ycsb.key_name(0), "multi_update", keys, "Q")
        for key in keys:
            rows = db.table_rows(key, "kv")
            assert rows[0]["value"].startswith("Q")

    def test_multi_update_atomic_on_missing_key(self):
        db = small_ycsb()
        keys = [ycsb.key_name(0), ycsb.key_name(1)]
        table = db.reactor(ycsb.key_name(1)).table("kv")
        del table.records[(ycsb.key_name(1),)]
        from repro.errors import TransactionAbort
        with pytest.raises(TransactionAbort):
            db.run(ycsb.key_name(0), "multi_update", keys, "Q")
        assert not db.table_rows(ycsb.key_name(0), "kv")[0][
            "value"].startswith("Q")

    def test_workload_generator_orders_remote_first(self):
        workload = ycsb.YcsbWorkload(1, theta=0.5, n_containers=4)

        class FakeWorker:
            rng = random.Random(1)
            issued = 0

        initiator, proc, (keys, __) = workload.next_txn(FakeWorker())
        assert proc == "multi_update"
        home = workload.container_of(
            int(initiator.replace("key", "")))
        containers = [workload.container_of(
            int(k.replace("key", ""))) for k in keys]
        seen_local = False
        for c in containers:
            if c == home:
                seen_local = True
            elif seen_local:
                pytest.fail("remote key after local keys")

    def test_high_skew_collapses_to_few_keys(self):
        workload = ycsb.YcsbWorkload(1, theta=5.0, n_containers=4)

        class FakeWorker:
            rng = random.Random(1)
            issued = 0

        sizes = []
        for __ in range(50):
            __, __, (keys, __d) = workload.next_txn(FakeWorker())
            sizes.append(len(keys))
        assert sum(sizes) / len(sizes) < 4  # duplicates collapsed

    def test_low_skew_keeps_ten_distinct_keys(self):
        workload = ycsb.YcsbWorkload(1, theta=0.01, n_containers=4)

        class FakeWorker:
            rng = random.Random(1)
            issued = 0

        __, __, (keys, __d) = workload.next_txn(FakeWorker())
        assert len(keys) == 10


@pytest.fixture
def exchange_db():
    from repro.core.deployment import ExplicitPlacement

    n = 3
    mapping = {ex.EXCHANGE_NAME: 0}
    declarations = [(ex.EXCHANGE_NAME, ex.EXCHANGE)]
    for i in range(n):
        mapping[ex.provider_name(i)] = i % 3
        declarations.append((ex.provider_name(i), ex.PROVIDER))
    deployment = shared_nothing(3,
                                placement=ExplicitPlacement(mapping))
    database = ReactorDatabase(deployment, declarations)
    ex.load_reactor_model(database, n, orders_per_provider=50,
                          window=20)
    return database


class TestExchangeReactorModel:
    def test_auth_pay_inserts_order(self, exchange_db):
        target = ex.provider_name(1)
        before = len(exchange_db.table_rows(target, "orders"))
        exchange_db.run(ex.EXCHANGE_NAME, "auth_pay", target, 7, 25.0,
                        10)
        after = exchange_db.table_rows(target, "orders")
        assert len(after) == before + 1
        newest = max(after, key=lambda r: r["time"])
        assert newest["settled"] == "N"
        assert newest["value"] == 25.0

    def test_auth_pay_updates_all_provider_risks(self, exchange_db):
        exchange_db.run(ex.EXCHANGE_NAME, "auth_pay",
                        ex.provider_name(0), 7, 25.0, 10)
        for i in range(3):
            info = exchange_db.table_rows(ex.provider_name(i),
                                          "provider_info")[0]
            assert info["risk"] > 0.0

    def test_risk_limit_aborts(self, exchange_db):
        # Shrink the global risk limit so the total exceeds it.
        exchange_db.reactor(ex.EXCHANGE_NAME).table(
            "settlement_risk").load_row(
            {"key": "tight", "p_exposure": ex.P_EXPOSURE,
             "g_risk": 0.0})
        # (limits row actually read is "limits"; patch it instead)
        table = exchange_db.reactor(ex.EXCHANGE_NAME).table(
            "settlement_risk")
        record = table.get_record(("limits",))
        table.install_update(record, dict(record.value, g_risk=0.0),
                             tid=99)
        from repro.errors import TransactionAbort
        with pytest.raises(TransactionAbort):
            exchange_db.run(ex.EXCHANGE_NAME, "auth_pay",
                            ex.provider_name(0), 7, 25.0, 10)

    def test_sim_risk_cached_within_window(self, exchange_db):
        # First call recomputes (window loaded stale); widen the
        # window so the second call hits the cache.
        exchange_db.run(ex.EXCHANGE_NAME, "auth_pay",
                        ex.provider_name(0), 7, 25.0, 10)
        for i in range(3):
            table = exchange_db.reactor(
                ex.provider_name(i)).table("provider_info")
            record = table.get_record(("info",))
            table.install_update(
                record, dict(record.value, window=1e18), tid=100)
        infos_before = [
            exchange_db.table_rows(ex.provider_name(i),
                                   "provider_info")[0]["time"]
            for i in range(3)]
        exchange_db.run(ex.EXCHANGE_NAME, "auth_pay",
                        ex.provider_name(1), 7, 25.0, 10)
        infos_after = [
            exchange_db.table_rows(ex.provider_name(i),
                                   "provider_info")[0]["time"]
            for i in range(3)]
        assert infos_before == infos_after  # cache hit: no recompute


class TestExchangeClassic:
    def _db(self, partitioned):
        from repro.core.deployment import (
            ContainerSpec,
            DeploymentConfig,
            ExplicitPlacement,
        )

        n = 3
        if partitioned:
            mapping = {ex.EXCHANGE_NAME: 0}
            declarations = [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)]
            for i in range(n):
                mapping[ex.fragment_name(i)] = i % 3
                declarations.append(
                    (ex.fragment_name(i), ex.ORDERS_FRAGMENT))
            deployment = shared_nothing(
                3, placement=ExplicitPlacement(mapping))
        else:
            deployment = DeploymentConfig(
                name="seq", containers=[ContainerSpec()],
                pin_reactors=True)
            declarations = [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)]
        database = ReactorDatabase(deployment, declarations)
        ex.load_classic(database, n, partitioned=partitioned,
                        orders_per_provider=50, window=20)
        return database

    def test_sequential_auth_pay(self):
        db = self._db(partitioned=False)
        db.run(ex.EXCHANGE_NAME, "auth_pay_sequential",
               ex.provider_name(0), 7, 30.0, 10)
        orders = db.table_rows(ex.EXCHANGE_NAME, "orders")
        newest = max(orders, key=lambda r: (r["provider"], r["time"]))
        assert any(r["value"] == 30.0 and r["settled"] == "N"
                   for r in orders)
        assert newest is not None

    def test_query_parallel_auth_pay(self):
        db = self._db(partitioned=True)
        db.run(ex.EXCHANGE_NAME, "auth_pay_query_parallel",
               ex.provider_name(1), 7, 30.0, 10)
        frag = ex.fragment_name(1)
        orders = db.table_rows(frag, "orders")
        assert any(r["value"] == 30.0 and r["settled"] == "N"
                   for r in orders)

    def test_formulations_agree_on_risk_outcome(self):
        seq = self._db(partitioned=False)
        par = self._db(partitioned=True)
        seq.run(ex.EXCHANGE_NAME, "auth_pay_sequential",
                ex.provider_name(0), 7, 30.0, 10)
        par.run(ex.EXCHANGE_NAME, "auth_pay_query_parallel",
                ex.provider_name(0), 7, 30.0, 10)
        risks_seq = sorted(r["risk"] for r in
                           seq.table_rows(ex.EXCHANGE_NAME, "provider"))
        risks_par = sorted(r["risk"] for r in
                           par.table_rows(ex.EXCHANGE_NAME, "provider"))
        assert risks_seq == pytest.approx(risks_par)
