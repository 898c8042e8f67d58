"""Direct unit tests for the YCSB and exchange workload modules.

Previously these workloads were exercised only through benchmarks;
here their procedures and input generators are driven directly,
parametrized over cc schemes, plus OCC with snapshot reads.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    ExplicitPlacement,
    RangePlacement,
    shared_nothing,
)
from repro.workloads import exchange as ex
from repro.workloads import ycsb

#: Deployment keywords per run: three schemes, and OCC with read-only
#: roots served from snapshots.
CC_CONFIGS = [
    pytest.param({"cc_scheme": "occ"}, id="occ"),
    pytest.param({"cc_scheme": "occ", "snapshot_reads": True},
                 id="occ+snapshot_reads"),
    pytest.param({"cc_scheme": "2pl_nowait"}, id="2pl_nowait"),
    pytest.param({"cc_scheme": "2pl_waitdie"}, id="2pl_waitdie"),
]

N_KEYS = 12
N_CONTAINERS = 3


class FakeWorker:
    def __init__(self, seed: int = 7) -> None:
        self.rng = random.Random(seed)
        self.issued = 0


def _ycsb_db(cc: dict) -> ReactorDatabase:
    deployment = shared_nothing(
        N_CONTAINERS, **cc,
        placement=RangePlacement(N_KEYS // N_CONTAINERS))
    decls = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(N_KEYS)]
    database = ReactorDatabase(deployment, decls)
    for i in range(N_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv",
                      [{"key": name,
                        "value": "x" * ycsb.RECORD_SIZE}])
    return database


@pytest.mark.parametrize("cc", CC_CONFIGS)
class TestYcsbProcedures:
    def test_multi_update_applies_to_every_key(self, cc):
        database = _ycsb_db(cc)
        keys = [ycsb.key_name(i) for i in (0, 4, 8, 11)]
        database.run(keys[0], "multi_update", keys, "Z")
        for key in keys:
            value = database.table_rows(key, "kv")[0]["value"]
            assert value.startswith("Z")
            assert len(value) == ycsb.RECORD_SIZE

    def test_read_one_is_read_only_and_correct(self, cc):
        database = _ycsb_db(cc)
        assert "read_one" in ycsb.KEY_REACTOR.read_only_procedures
        value = database.run(ycsb.key_name(3), "read_one")
        assert value == "x" * ycsb.RECORD_SIZE
        if cc.get("snapshot_reads"):
            assert database.telemetry.registry.value(
                "storage_snapshot_roots_total") == 1

    def test_multi_read_commits_across_containers(self, cc):
        database = _ycsb_db(cc)
        assert "multi_read" in ycsb.KEY_REACTOR.read_only_procedures
        keys = [ycsb.key_name(i) for i in (1, 5, 9)]
        database.run(keys[0], "multi_read", keys)
        metric = database.telemetry.registry.value
        assert metric("storage_read_only_aborts_total") == 0
        if cc.get("snapshot_reads"):
            # One snapshot root, sessions in three containers.
            assert metric("storage_snapshot_roots_total") == 1
            assert metric("storage_snapshot_reads_total") == 3

    def test_concurrent_mix_stays_consistent(self, cc):
        database = _ycsb_db(cc)
        workload = ycsb.YcsbWorkload(
            1, theta=0.9, n_containers=N_CONTAINERS, n_keys=N_KEYS,
            keys_per_txn=4, read_fraction=0.5)
        worker = FakeWorker()
        outcomes: list = []

        def on_done(root, committed, reason, result):
            outcomes.append(committed)

        for __ in range(40):
            reactor, proc, args = workload.next_txn(worker)
            worker.issued += 1
            database.submit(reactor, proc, *args, on_done=on_done)
        database.scheduler.run()
        assert len(outcomes) == 40
        assert any(outcomes)
        # Committed updates never tore a record.
        for i in range(N_KEYS):
            value = database.table_rows(
                ycsb.key_name(i), "kv")[0]["value"]
            assert len(value) == ycsb.RECORD_SIZE
        if cc.get("snapshot_reads"):
            metric = database.telemetry.registry.value
            assert metric("storage_read_only_aborts_total") == 0
            assert metric("storage_pinned_snapshots") == 0


class TestYcsbGenerator:
    def test_read_fraction_mixes_multi_read(self):
        workload = ycsb.YcsbWorkload(
            1, theta=0.5, n_containers=N_CONTAINERS, n_keys=N_KEYS,
            read_fraction=0.5)
        worker = FakeWorker()
        procs = set()
        for __ in range(200):
            __, proc, ___ = workload.next_txn(worker)
            worker.issued += 1
            procs.add(proc)
        assert procs == {"multi_read", "multi_update"}

    def test_read_span_overrides_keys_per_txn(self):
        workload = ycsb.YcsbWorkload(
            1, theta=0.0, n_containers=N_CONTAINERS, n_keys=N_KEYS,
            keys_per_txn=3, read_fraction=1.0, read_keys_per_txn=8)
        worker = FakeWorker()
        __, proc, (keys,) = workload.next_txn(worker)
        assert proc == "multi_read"
        assert 3 < len(keys) <= 8  # zipf draws, deduplicated

    def test_zero_read_fraction_is_the_classic_workload(self):
        workload = ycsb.YcsbWorkload(
            1, theta=0.5, n_containers=N_CONTAINERS, n_keys=N_KEYS)
        worker = FakeWorker()
        for __ in range(50):
            __, proc, ___ = workload.next_txn(worker)
            worker.issued += 1
            assert proc == "multi_update"


def _exchange_reactor_db(cc: dict) -> ReactorDatabase:
    n = 3
    mapping = {ex.EXCHANGE_NAME: 0}
    declarations = [(ex.EXCHANGE_NAME, ex.EXCHANGE)]
    for i in range(n):
        mapping[ex.provider_name(i)] = i % 3
        declarations.append((ex.provider_name(i), ex.PROVIDER))
    database = ReactorDatabase(
        shared_nothing(3, **cc, placement=ExplicitPlacement(mapping)),
        declarations)
    ex.load_reactor_model(database, n, orders_per_provider=40,
                          window=15)
    return database


def _exchange_classic_db(cc: dict,
                         partitioned: bool) -> ReactorDatabase:
    n = 3
    if partitioned:
        mapping = {ex.EXCHANGE_NAME: 0}
        declarations = [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)]
        for i in range(n):
            mapping[ex.fragment_name(i)] = i % 3
            declarations.append(
                (ex.fragment_name(i), ex.ORDERS_FRAGMENT))
        deployment = shared_nothing(
            3, **cc, placement=ExplicitPlacement(mapping))
    else:
        deployment = shared_nothing(1, **cc)
        declarations = [(ex.EXCHANGE_NAME, ex.CLASSIC_EXCHANGE)]
    database = ReactorDatabase(deployment, declarations)
    ex.load_classic(database, n, partitioned=partitioned,
                    orders_per_provider=40, window=15)
    return database


@pytest.mark.parametrize("cc", CC_CONFIGS)
class TestExchangeAcrossSchemes:
    def test_reactor_model_auth_pay(self, cc):
        database = _exchange_reactor_db(cc)
        target = ex.provider_name(2)
        before = len(database.table_rows(target, "orders"))
        database.run(ex.EXCHANGE_NAME, "auth_pay", target, 11, 20.0, 5)
        after = database.table_rows(target, "orders")
        assert len(after) == before + 1
        # Every provider's risk was recomputed (cache windows load 0).
        for i in range(3):
            info = database.table_rows(ex.provider_name(i),
                                       "provider_info")[0]
            assert info["risk"] > 0.0

    def test_classic_formulations_agree(self, cc):
        seq = _exchange_classic_db(cc, partitioned=False)
        par = _exchange_classic_db(cc, partitioned=True)
        seq.run(ex.EXCHANGE_NAME, "auth_pay_sequential",
                ex.provider_name(0), 11, 20.0, 5)
        par.run(ex.EXCHANGE_NAME, "auth_pay_query_parallel",
                ex.provider_name(0), 11, 20.0, 5)
        seq_providers = seq.table_rows(ex.EXCHANGE_NAME, "provider")
        par_providers = par.table_rows(ex.EXCHANGE_NAME, "provider")
        assert [p["risk"] for p in seq_providers] == \
            [p["risk"] for p in par_providers]
        # The appended order lands at next_time == 40 in both.
        seq_orders = [r for r in seq.table_rows(ex.EXCHANGE_NAME,
                                                "orders")
                      if r["time"] == 40 and r["value"] == 20.0]
        par_orders = [r for r in par.table_rows(ex.fragment_name(0),
                                                "orders")
                      if r["time"] == 40 and r["value"] == 20.0]
        assert len(seq_orders) == len(par_orders) == 1

    def test_provider_exposure_abort_propagates(self, cc):
        database = _exchange_reactor_db(cc)
        # Choke the per-provider exposure limit: calc_risk aborts.
        table = database.reactor(ex.EXCHANGE_NAME).table(
            "settlement_risk")
        record = table.get_record(("limits",))
        table.install_update(
            record, dict(record.value, p_exposure=0.0), tid=500)
        from repro.errors import TransactionAbort

        with pytest.raises(TransactionAbort, match="exposure"):
            database.run(ex.EXCHANGE_NAME, "auth_pay",
                         ex.provider_name(0), 11, 20.0, 5)
