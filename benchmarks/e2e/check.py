"""The correctness gate: run once per workload, untimed.

Black-box in the sense of Huang et al. (PAPERS.md): the served path is
judged by what the client observed and by the state it left behind.

* served workloads — the first ``n`` inputs executed serially over
  ``TcpClient`` give the same answers, and leave every table identical,
  to the same inputs executed serially over ``LocalClient``;
* all workloads — a windowed slice of further inputs, run with
  ``attach_recorder``, passes ``certify_all`` (a failure of its
  serializability certificate is confirmed first, see
  :func:`certain_cycle`);
* embedded workloads — the counted warm-up on a fresh database
  reproduces the run's commit/abort/validation/fsync counts exactly;
* TPC-C — ``tpcc.check_database`` holds afterwards;
* served — every submission resolved exactly once and the server
  reports nothing left in flight.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any

from repro.client import LocalClient
from repro.formal.audit import attach_recorder, certify_all
from repro.formal.history import ReactorHistory
from repro.formal.ops import WRITE, Op, Terminal
from repro.formal.serializability import has_cycle
from repro.workloads import tpcc

from harness import Driver, Tally, counters
from inputs import TPCC_WAREHOUSES, Spec, cycle_from
from workloads import Workload, served

#: Largest slice ``certify_all`` is asked to judge.  Its
#: serializability check is quadratic in the recorded operations
#: (SmallBank: 1,000 txns 0.75 s, 2,000 txns 2.9 s; TPC-C, whose scans
#: record hundreds of reads: 100 txns 0.8 s, 200 txns 2.4 s, 500 txns
#: 20 s), so the slice is sized to well under a second — ``formal.certify_txn_per_s`` is
#: the number ROADMAP item 4a has to move before it can grow.
CERTIFY_MAX = {"smallbank": 500, "tpcc": 100}


def certain_cycle(history: ReactorHistory) -> bool:
    """Is ``history`` non-serializable wherever its writes took effect?

    The recorder notes a write when it is buffered, and
    ``certify_all`` orders it there.  Under OCC it takes effect later,
    at some instant up to its transaction's commit event, so a read
    between the two saw the old value and the certificate draws that
    edge the wrong way: TPC-C seed 9004 fails it with a stock-level
    scan that read a row a concurrent new-order had buffered, and
    committed before it (README, "Known gaps").  Here a write covers
    that whole interval, a read stands where it is, and only
    conflicting operations that do not overlap order their
    transactions; a cycle of such edges is a violation for certain."""
    ended = {event.txn: at for at, event in enumerate(history.events)
             if isinstance(event, Terminal)}
    committed = history.committed_txns()
    by_item = defaultdict(list)
    for at, op in enumerate(history.events):
        if isinstance(op, Op) and op.txn in committed:
            until = ended[op.txn] if op.kind == WRITE else at
            by_item[op.reactor, op.item].append((at, until, op))
    edges = {(first.txn, second.txn)
             for ops in by_item.values()
             for __, until, first in ops
             for at, __, second in ops
             if until < at and first.txn != second.txn
             and first.conflicts_with(second)}
    return has_cycle(committed, edges)


def table_state(database: Any) -> dict[str, list]:
    """Every table of every reactor, rows in a canonical order."""
    state = {}
    for name in database.reactor_names():
        for table in database.reactor(name).catalog:
            state[f"{name}/{table.name}"] = sorted(
                json.dumps(row, sort_keys=True) for row in table.rows())
    return state


def _answer(outcome: Any) -> Any:
    """A reply as the wire would carry it (tuples become lists)."""
    if outcome is None:
        return "no reply"
    return json.loads(json.dumps(
        [outcome.committed, outcome.result, outcome.reason]))


def _serial_answers(driver: Driver, specs: list[Spec],
                    n: int) -> list:
    """Exactly the first ``n`` specs, one at a time."""
    __, answered = driver.solo(iter(specs), count=n)
    return [_answer(outcome) for __, outcome in answered]


def run_gate(workload: Workload, specs: list[Spec], n: int,
             warmup: int,
             expected_counts: dict | None) -> dict[str, Any]:
    """Run the gate; ``failures`` lists every check that did not hold.

    ``expected_counts`` are the public counters the run read after its
    ``warmup``-transaction warm-up on an embedded workload."""
    failures: list[str] = []
    tally = Tally()
    database = workload.build()
    try:
        if workload.served:
            reference = workload.build()
            try:
                local = _serial_answers(
                    Driver(LocalClient(reference), Tally()), specs, n)
                with served(database) as client:
                    wire = _serial_answers(Driver(client, tally),
                                           specs, n)
                if wire != local:
                    wrong = sum(a != b for a, b in zip(wire, local))
                    failures.append(
                        f"{wrong} of {n} serial answers differ between "
                        "TcpClient and LocalClient")
                if table_state(database) != table_state(reference):
                    failures.append(
                        "tables differ after the same serial inputs "
                        "over TcpClient and LocalClient")
            finally:
                reference.close()
        elif expected_counts is not None:
            # On the sim backend the warm-up over a fresh database
            # always executes the same events.
            workload.warm_up(Driver(LocalClient(database), Tally()),
                             cycle_from(specs, 0), warmup)
            counts = counters(database)
            if counts != expected_counts:
                failures.append(
                    f"counted warm-up is not deterministic: {counts} "
                    f"!= {expected_counts}")

        certified = min(n, CERTIFY_MAX[workload.kind])
        recorder = attach_recorder(database)
        feed = cycle_from(specs, n)
        if workload.served:
            with served(database) as client:
                Driver(client, tally).closed_loop(
                    feed, workload.window, count=certified)
                in_flight = database.telemetry.registry.value(
                    "serving_inflight")
            if in_flight:
                failures.append(f"server reports {in_flight} requests "
                                "in flight after every reply arrived")
        else:
            Driver(LocalClient(database), tally).windows(
                feed, workload.window, count=certified)
        start = time.perf_counter()
        report = certify_all(database, recorder)
        certify_s = time.perf_counter() - start
        failures.extend(
            f"certificate {f['kind']}: {f['detail']}"
            for f in report["failures"]
            if f["kind"] != "serializability"
            or certain_cycle(recorder.history))
        if workload.kind == "tpcc":
            try:
                tpcc.check_database(database, TPCC_WAREHOUSES)
            except tpcc.ConsistencyViolation as violation:
                failures.append(f"tpcc consistency: {violation}")
    finally:
        database.close()
    if tally.failed:
        failures.append(f"{tally.failed} of {tally.attempted} check "
                        f"requests failed: {dict(tally.kinds)}")
    return {"ok": not failures, "failures": failures,
            "attempted": tally.attempted, "failed": tally.failed,
            "certified_txns": certified,
            "certify_txn_per_s": certified / certify_s}
