"""Ablation: the receive-path cost asymmetry (Cr >> Cs).

The paper attributes the substantial gap between partially-async and
fully-async multi-transfers to the asymmetric cost of receiving
results (a thread switch) versus sending invocations (an atomic
enqueue).  This ablation re-runs Figure 5's size-7 point on a machine
where Cr == Cs: the partially-async vs fully-async gap should shrink
dramatically, confirming the causal story.
"""

from __future__ import annotations

import dataclasses

from repro.bench.harness import single_worker_latency
from repro.bench.report import print_table
from repro.experiments.common import (
    smallbank_database,
    spread_destinations,
)
from repro.sim.machine import XEON_E3_1276
from repro.workloads import smallbank

SIZE = 7
CPC = 60

QUICK = dict(n_txns=50)


def _latency(variant: str, machine, n_txns: int) -> float:
    database = smallbank_database(CPC, machine=machine)
    spec = smallbank.multi_transfer_spec(
        variant, smallbank.reactor_name(0),
        spread_destinations(SIZE, CPC))
    return single_worker_latency(
        database, lambda w: spec, n_txns=n_txns).summary.latency_us


def run(n_txns: int = 50) -> list[list]:
    """Rows of [machine, partially-async, fully-async, gap]."""
    symmetric_machine = dataclasses.replace(
        XEON_E3_1276, name="xeon-symmetric",
        costs=XEON_E3_1276.costs.with_symmetric_communication())

    rows = []
    for label, machine in (("asymmetric (paper)", XEON_E3_1276),
                           ("symmetric (Cr == Cs)", symmetric_machine)):
        partial = _latency("partially-async", machine, n_txns)
        full = _latency("fully-async", machine, n_txns)
        rows.append([label, partial, full, partial - full])
    return rows


def report(rows):
    print_table(
        "Ablation: partially-async vs fully-async gap under "
        "symmetric communication (size 7)",
        ["machine", "partially-async [us]", "fully-async [us]",
         "gap [us]"], rows)


def check(rows):
    gaps = {label: gap for label, __, __, gap in rows}
    # The gap collapses when the receive path costs as little as the
    # send path — the paper's causal claim.
    assert gaps["symmetric (Cr == Cs)"] < \
        0.5 * gaps["asymmetric (paper)"]
