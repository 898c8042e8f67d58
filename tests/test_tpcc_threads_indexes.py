"""TPC-C on the ``threads`` backend leaves every ordered index equal to
its table.

The standard mix runs concurrently on container worker threads over a
database loaded with enough order lines that ``ol_by_order`` spans
several index chunks, so inserts land in split and unsplit chunks
alike.  Afterwards each ordered index must hold exactly the sorted
``(key, pk)`` pairs of its table's live rows, and the TPC-C
consistency conditions must hold.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.experiments.common import tpcc_database
from repro.relational.index import OrderedIndex
from repro.workloads import tpcc

W = 2
SCALE = tpcc.TpccScale(districts=3, customers_per_district=20,
                       items=50, orders_per_district=80, last_names=5)
ROOTS = 400
BATCH = 16


def _index_matches_rows(table, index) -> int:
    live = sorted((index.key_of(record.value), record.key)
                  for record in table.iter_records())
    assert len(index) == len(live), (table.name, index.name)
    assert index.range(None, None) == [pk for __, pk in live], \
        (table.name, index.name)
    for key, pk in live:
        assert pk in index.lookup(key), (table.name, index.name, key)
    return len(live)


def test_threads_tpcc_keeps_every_ordered_index_equal_to_its_rows():
    database = tpcc_database("shared-nothing-async", W, scale=SCALE,
                             backend="threads")
    try:
        workload = tpcc.TpccWorkload(n_warehouses=W, scale=SCALE,
                                     remote_item_prob=0.2, seed=3)
        worker = SimpleNamespace(rng=random.Random("threads/tpcc"))
        factories = [workload.factory_for(w) for w in range(W)]
        outcomes: list[bool] = []

        def on_done(root, committed, reason, result):
            outcomes.append(committed)

        for i in range(ROOTS):
            reactor, proc, args = factories[i % W](worker)
            database.submit(reactor, proc, *args, on_done=on_done)
            if i % BATCH == BATCH - 1:
                database.scheduler.run()
        database.scheduler.run()
        assert len(outcomes) == ROOTS
        assert sum(outcomes) > ROOTS // 2

        checked = {}
        for name in database.reactor_names():
            for table in database.reactor(name).catalog:
                for index in table.indexes.values():
                    if isinstance(index, OrderedIndex):
                        checked[name, index.name] = \
                            _index_matches_rows(table, index)
        assert len(checked) == 3 * W
        assert min(n for (__, index), n in checked.items()
                   if index == "ol_by_order") > 2 * OrderedIndex.CHUNK
        tpcc.check_database(database, W)
    finally:
        database.close()
