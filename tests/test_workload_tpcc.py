"""TPC-C workload tests: loader shape, transaction semantics,
consistency invariants, input generation."""

import random

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.errors import TransactionAbort
from repro.sim.machine import OPTERON_6274
from repro.workloads import tpcc

W = 2
SCALE = tpcc.TpccScale(districts=3, customers_per_district=20,
                       items=50, orders_per_district=10, last_names=5)


@pytest.fixture
def db():
    database = ReactorDatabase(
        shared_nothing(W, machine=OPTERON_6274),
        tpcc.declarations(W))
    tpcc.load(database, W, SCALE)
    return database


def wh(i):
    return tpcc.warehouse_name(i)


class TestLoader:
    def test_cardinalities(self, db):
        assert len(db.table_rows(wh(1), "warehouse")) == 1
        assert len(db.table_rows(wh(1), "district")) == SCALE.districts
        assert len(db.table_rows(wh(1), "customer")) == \
            SCALE.districts * SCALE.customers_per_district
        assert len(db.table_rows(wh(1), "item")) == SCALE.items
        assert len(db.table_rows(wh(1), "stock")) == SCALE.items
        assert len(db.table_rows(wh(1), "orders")) == \
            SCALE.districts * SCALE.orders_per_district

    def test_undelivered_orders_have_new_order_rows(self, db):
        new_orders = db.table_rows(wh(1), "new_order")
        orders = {(o["o_d_id"], o["o_id"]): o
                  for o in db.table_rows(wh(1), "orders")}
        assert new_orders
        for row in new_orders:
            order = orders[(row["no_d_id"], row["no_o_id"])]
            assert order["o_carrier_id"] is None

    def test_district_counters_consistent(self, db):
        for district in db.table_rows(wh(1), "district"):
            assert district["d_next_o_id"] == \
                SCALE.orders_per_district + 1

    def test_last_names_bucketed(self, db):
        lasts = {c["c_last"] for c in db.table_rows(wh(1), "customer")}
        assert len(lasts) == SCALE.last_names

    def test_loading_is_deterministic(self):
        db_a = ReactorDatabase(shared_nothing(W, machine=OPTERON_6274),
                               tpcc.declarations(W))
        tpcc.load(db_a, W, SCALE, seed=3)
        db_b = ReactorDatabase(shared_nothing(W, machine=OPTERON_6274),
                               tpcc.declarations(W))
        tpcc.load(db_b, W, SCALE, seed=3)
        assert db_a.table_rows(wh(1), "stock") == \
            db_b.table_rows(wh(1), "stock")


class TestNewOrder:
    def _items(self, local=2, remote=0):
        items = [(wh(1), i + 1, 2) for i in range(local)]
        items += [(wh(2), i + 1, 3) for i in range(remote)]
        return items

    def test_local_new_order(self, db):
        result = db.run(wh(1), "new_order", 1, 1, 1, self._items(3))
        assert result["o_id"] == SCALE.orders_per_district + 1
        assert result["total"] > 0

    def test_district_counter_advances(self, db):
        db.run(wh(1), "new_order", 1, 1, 1, self._items(2))
        district = [d for d in db.table_rows(wh(1), "district")
                    if d["d_id"] == 1][0]
        assert district["d_next_o_id"] == SCALE.orders_per_district + 2

    def test_order_lines_written(self, db):
        result = db.run(wh(1), "new_order", 1, 1, 1,
                        self._items(2, remote=2))
        lines = [l for l in db.table_rows(wh(1), "order_line")
                 if l["ol_o_id"] == result["o_id"] and
                 l["ol_d_id"] == 1]
        assert len(lines) == 4
        supply = sorted(l["ol_supply_w_id"] for l in lines)
        assert supply == [1, 1, 2, 2]

    def test_remote_stock_updated(self, db):
        before = {s["s_i_id"]: s for s in db.table_rows(wh(2), "stock")}
        db.run(wh(1), "new_order", 1, 1, 1, self._items(1, remote=2))
        after = {s["s_i_id"]: s for s in db.table_rows(wh(2), "stock")}
        changed = [i for i in after
                   if after[i]["s_ytd"] != before[i]["s_ytd"]]
        assert len(changed) == 2
        for i in changed:
            assert after[i]["s_remote_cnt"] == \
                before[i]["s_remote_cnt"] + 1

    def test_local_stock_update_not_remote_counted(self, db):
        db.run(wh(1), "new_order", 1, 1, 1, self._items(2))
        stock = {s["s_i_id"]: s for s in db.table_rows(wh(1), "stock")}
        assert stock[1]["s_remote_cnt"] == 0
        assert stock[1]["s_order_cnt"] == 1

    def test_stock_wraps_below_threshold(self, db):
        # Drain stock down with repeated orders; quantity must stay
        # positive via the +91 wrap rule.
        for __ in range(12):
            db.run(wh(1), "new_order", 1, 1, 1, [(wh(1), 1, 9)])
        stock = [s for s in db.table_rows(wh(1), "stock")
                 if s["s_i_id"] == 1][0]
        assert stock["s_quantity"] >= 10 - 9

    def test_invalid_item_aborts_atomically(self, db):
        items = self._items(2) + [(wh(1), 9999, 1)]
        with pytest.raises(TransactionAbort):
            db.run(wh(1), "new_order", 1, 1, 1, items)
        district = [d for d in db.table_rows(wh(1), "district")
                    if d["d_id"] == 1][0]
        assert district["d_next_o_id"] == SCALE.orders_per_district + 1

    def test_sync_remote_variant_same_effects(self, db):
        result = db.run(wh(1), "new_order", 1, 1, 1,
                        self._items(1, remote=1), True)
        assert result["total"] > 0


class TestPayment:
    def test_local_payment_by_id(self, db):
        db.run(wh(1), "payment", 1, 2, 100.0, wh(1), 2, 5, None)
        customer = [c for c in db.table_rows(wh(1), "customer")
                    if c["c_d_id"] == 2 and c["c_id"] == 5][0]
        assert customer["c_balance"] == -110.0
        assert customer["c_payment_cnt"] == 2
        warehouse = db.table_rows(wh(1), "warehouse")[0]
        assert warehouse["w_ytd"] == 300_100.0

    def test_remote_payment(self, db):
        db.run(wh(1), "payment", 1, 1, 50.0, wh(2), 3, 7, None)
        customer = [c for c in db.table_rows(wh(2), "customer")
                    if c["c_d_id"] == 3 and c["c_id"] == 7][0]
        assert customer["c_balance"] == -60.0
        # History row lands at the home warehouse.
        history = db.table_rows(wh(1), "history")
        assert len(history) == 1
        assert history[0]["h_c_w_id"] == 2

    def test_payment_by_last_name_picks_middle(self, db):
        last = db.table_rows(wh(1), "customer")[0]["c_last"]
        paid = db.run(wh(1), "payment", 1, 1, 10.0, wh(1), 1, None,
                      last)
        matching = sorted(
            (c for c in db.table_rows(wh(1), "customer")
             if c["c_d_id"] == 1 and c["c_last"] == last),
            key=lambda c: c["c_first"])
        assert paid == matching[len(matching) // 2]["c_id"]

    def test_unknown_last_name_aborts(self, db):
        with pytest.raises(TransactionAbort):
            db.run(wh(1), "payment", 1, 1, 10.0, wh(1), 1, None,
                   "NOSUCHNAME")

    def test_bad_credit_customer_accumulates_data(self, db):
        bad = [c for c in db.table_rows(wh(1), "customer")
               if c["c_credit"] == "BC"]
        if not bad:
            pytest.skip("no BC customer at this seed")
        customer = bad[0]
        db.run(wh(1), "payment", 1, 1, 42.0, wh(1),
               customer["c_d_id"], customer["c_id"], None)
        updated = [c for c in db.table_rows(wh(1), "customer")
                   if c["c_id"] == customer["c_id"] and
                   c["c_d_id"] == customer["c_d_id"]][0]
        assert updated["c_data"].startswith(f"{customer['c_id']},")


@pytest.mark.parametrize("scheme, snapshot_reads", [
    ("occ", False), ("occ", True), ("2pl_nowait", False),
    ("none", False)])
def test_racing_payments_abort_as_cc_conflicts(scheme, snapshot_reads):
    """Two payments on one warehouse read the same ``w_h_count``, so
    both key their history row ``h_seq = 1``.  A delivery queued first
    on the customers' warehouse keeps both payments waiting on their
    remote customer update, so the second reads the warehouse before
    the first commits and inserts after it did.

    Under OCC that insert meets a committed row while its warehouse
    read is stale: validation would fail it anyway, so it is a CC
    abort (one validation failure), not a user abort the client cannot
    retry.  2PL refuses the second warehouse read instead.  Under
    ``none`` the duplicate key stays the user abort it is: nothing
    else catches the race."""
    database = ReactorDatabase(
        shared_nothing(W, cc_scheme=scheme, snapshot_reads=snapshot_reads),
        tpcc.declarations(W))
    tpcc.load(database, W, SCALE)
    outcomes = {}

    def done(root, committed, reason, result):
        outcomes[root.txn_id] = (committed, root.user_abort, reason)

    database.submit(wh(2), "delivery", 2, 7, on_done=done)
    for c_id in (1, 2):
        database.submit(wh(1), "payment", 1, 1, 10.0, wh(2), 1, c_id,
                        None, on_done=done)
    database.scheduler.run()

    assert outcomes[1][0] and outcomes[2][0]
    committed, user_abort, reason = outcomes[3]
    assert not committed
    assert len(database.table_rows(wh(1), "history")) == 1
    failures = database.abort_counts()["by_reason"]["validation_failure"]
    if scheme == "occ":
        assert not user_abort
        assert reason.startswith("stale read of (1,) in txn 3")
        assert failures == 1
    elif scheme == "2pl_nowait":
        assert not user_abort
        assert "lock conflict" in reason
    else:
        assert user_abort
        assert reason.startswith("DuplicateKeyError")


class TestReadOnlyAndDelivery:
    def test_order_status_by_id(self, db):
        result = db.run(wh(1), "order_status", 1, 1, None)
        assert result["c_id"] == 1
        if result["order"] is not None:
            assert result["lines"] >= 5

    def test_order_status_returns_latest_order(self, db):
        db.run(wh(1), "new_order", 1, 1, 1, [(wh(1), 1, 1)])
        result = db.run(wh(1), "order_status", 1, 1, None)
        assert result["order"] == SCALE.orders_per_district + 1

    def test_delivery_clears_oldest_new_orders(self, db):
        before = db.table_rows(wh(1), "new_order")
        delivered = db.run(wh(1), "delivery", 1, 5)
        after = db.table_rows(wh(1), "new_order")
        assert len(after) == len(before) - len(delivered)
        oldest = min(r["no_o_id"] for r in before)
        assert any(o_id == oldest for __, o_id in delivered)

    def test_delivery_updates_customer_balance(self, db):
        delivered = db.run(wh(1), "delivery", 1, 5)
        d_id, o_id = delivered[0]
        order = [o for o in db.table_rows(wh(1), "orders")
                 if o["o_d_id"] == d_id and o["o_id"] == o_id][0]
        assert order["o_carrier_id"] == 5
        customer = [c for c in db.table_rows(wh(1), "customer")
                    if c["c_d_id"] == d_id and
                    c["c_id"] == order["o_c_id"]][0]
        assert customer["c_delivery_cnt"] == 1

    def test_stock_level_counts_low_stock(self, db):
        count = db.run(wh(1), "stock_level", 1, 1000)
        assert count > 0  # threshold 1000 > all quantities
        assert db.run(wh(1), "stock_level", 1, 0) == 0

    @pytest.mark.parametrize("proc, args", [
        ("order_status", (1, 1, None)), ("stock_level", (1, 1000))])
    def test_read_only_procedures_read_snapshots(self, proc, args):
        """Both are declared read-only, so ``snapshot_reads`` serves
        them from a pinned snapshot."""
        assert proc in tpcc.WAREHOUSE.read_only_procedures
        database = ReactorDatabase(shared_nothing(W, snapshot_reads=True),
                                   tpcc.declarations(W))
        tpcc.load(database, W, SCALE)
        database.run(wh(1), proc, *args)
        assert database.telemetry.registry.value(
            "storage_snapshot_roots_total") == 1


class TestInputGeneration:
    def test_nurand_in_range(self):
        rng = random.Random(1)
        for __ in range(500):
            value = tpcc.nurand(rng, 255, 1, 100, 37)
            assert 1 <= value <= 100

    def test_mix_proportions(self):
        workload = tpcc.TpccWorkload(n_warehouses=2, scale=SCALE)

        class FakeWorker:
            rng = random.Random(3)
            issued = 0

        factory = workload.factory_for(0)
        counts: dict = {}
        for __ in range(2000):
            reactor, proc, args = factory(FakeWorker())
            counts[proc] = counts.get(proc, 0) + 1
        assert 0.40 < counts["new_order"] / 2000 < 0.50
        assert 0.38 < counts["payment"] / 2000 < 0.48
        assert counts.get("delivery", 0) > 0

    def test_client_affinity(self):
        workload = tpcc.TpccWorkload(n_warehouses=4, scale=SCALE)
        assert workload.home_warehouse(0) == 1
        assert workload.home_warehouse(3) == 4
        assert workload.home_warehouse(4) == 1  # wraps

    def test_remote_item_probability_extremes(self):
        rng = random.Random(1)
        all_remote = tpcc.TpccWorkload(
            n_warehouses=4, scale=SCALE, remote_item_prob=1.0,
            invalid_item_prob=0.0)
        __, __, args = all_remote.new_order_spec(rng, 1)
        assert all(s != tpcc.warehouse_name(1) for s, __, __q in
                   args[3])
        none_remote = tpcc.TpccWorkload(
            n_warehouses=4, scale=SCALE, remote_item_prob=0.0,
            invalid_item_prob=0.0)
        __, __, args = none_remote.new_order_spec(rng, 1)
        assert all(s == tpcc.warehouse_name(1) for s, __, __q in
                   args[3])

    def test_single_warehouse_has_no_remote(self):
        workload = tpcc.TpccWorkload(n_warehouses=1, scale=SCALE,
                                     remote_item_prob=1.0)
        rng = random.Random(1)
        assert workload._other_warehouse(rng, 1) == 1

    def test_deployment_equivalence_on_new_order(self):
        """Identical new-order effects under S2 and S3 (virtualization)."""
        states = []
        for deployment in (shared_nothing(W, machine=OPTERON_6274),
                           shared_everything_with_affinity(
                               W, machine=OPTERON_6274)):
            database = ReactorDatabase(deployment,
                                       tpcc.declarations(W))
            tpcc.load(database, W, SCALE)
            database.run(wh(1), "new_order", 1, 1, 1,
                         [(wh(1), 1, 2), (wh(2), 3, 4)])
            database.run(wh(1), "payment", 1, 1, 10.0, wh(2), 1, 1,
                         None)
            states.append((
                database.table_rows(wh(1), "order_line"),
                database.table_rows(wh(2), "stock"),
                database.table_rows(wh(2), "customer"),
            ))
        assert states[0] == states[1]
