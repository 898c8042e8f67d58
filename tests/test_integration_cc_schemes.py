"""Integration: CC schemes × deployments, audited for serializability.

The deployment-virtualization claim extended to concurrency control:
the same applications (SmallBank and TPC-C new-order) run unchanged
under every (deployment strategy, cc_scheme) combination.  For every
CC-enabled scheme the :mod:`repro.formal` audit must certify the
recorded operation history as conflict-serializable; the explicit
``"none"`` scheme is the negative control — the same contended
SmallBank run demonstrably violates serializability and loses money.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.formal.audit import attach_recorder
from repro.formal.serializability import serialization_order
from repro.workloads import smallbank as sb
from repro.workloads import tpcc

N = 8

DEPLOYMENTS = [
    ("shared-nothing",
     lambda scheme: shared_nothing(4, mpl=4, cc_scheme=scheme)),
    ("shared-everything-affinity",
     lambda scheme: shared_everything_with_affinity(
         4, cc_scheme=scheme)),
    ("shared-everything-rr",
     lambda scheme: shared_everything_without_affinity(
         4, cc_scheme=scheme)),
]

CC_SCHEMES = ("occ", "2pl_nowait", "2pl_waitdie")
ALL_SCHEMES = CC_SCHEMES + ("none",)


def _smallbank_specs(n_txns: int = 50) -> list[tuple]:
    """A mix of contended multi-transfers and independent deposits.

    The independent transactions guarantee progress even under the
    most abort-happy scheme (shared-nothing NO_WAIT), so the committed
    set is never vacuous.
    """
    rng = random.Random(1234)
    specs: list[tuple] = []
    for i in range(n_txns):
        if i % 2 == 0:
            variant = sb.VARIANTS[i % len(sb.VARIANTS)]
            src = sb.reactor_name(rng.randrange(N))
            dsts = []
            while len(dsts) < 2:
                dst = sb.reactor_name(rng.randrange(N))
                if dst != src and dst not in dsts:
                    dsts.append(dst)
            specs.append(sb.multi_transfer_spec(variant, src, dsts, 1.0))
        else:
            specs.append((sb.reactor_name(rng.randrange(N)),
                          "deposit_checking", (1.0,)))
    return specs


def _run_all(database: ReactorDatabase,
             specs: list[tuple]) -> list[bool | None]:
    """Submit every spec concurrently; returns per-spec commit flags."""
    outcomes: list[bool | None] = [None] * len(specs)

    def make_on_done(index: int):
        def on_done(root, committed, reason, result):
            outcomes[index] = committed
        return on_done

    for index, (reactor, proc, args) in enumerate(specs):
        database.submit(reactor, proc, *args,
                        on_done=make_on_done(index))
    database.scheduler.run()
    return outcomes


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("label,deployment_fn", DEPLOYMENTS)
def test_smallbank_runs_and_cc_schemes_are_serializable(
        label, deployment_fn, scheme):
    database = ReactorDatabase(deployment_fn(scheme),
                               sb.declarations(N))
    sb.load(database, N)
    recorder = attach_recorder(database)

    specs = _smallbank_specs()
    outcomes = _run_all(database, specs)
    assert None not in outcomes, "every transaction completes"
    assert any(outcomes), f"{label}/{scheme}: nothing committed"

    if scheme != "none":
        assert recorder.is_serializable(), (
            f"{label}/{scheme}: audit rejected the history")
        assert serialization_order(
            recorder.history.committed_txns(),
            recorder.history.conflict_edges()) is not None
        # Transfers conserve money; each committed deposit adds 1.0.
        deposited = sum(
            1.0 for spec, committed in zip(specs, outcomes)
            if committed and spec[1] == "deposit_checking")
        assert sb.total_money(database, N) == pytest.approx(
            N * 2 * sb.INITIAL_BALANCE + deposited)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("label,deployment_fn", DEPLOYMENTS)
def test_tpcc_new_order_runs_and_is_serializable(label, deployment_fn,
                                                 scheme):
    W = 2
    scale = tpcc.TpccScale(districts=2, customers_per_district=10,
                           items=30, orders_per_district=5,
                           last_names=5)
    database = ReactorDatabase(deployment_fn(scheme),
                               tpcc.declarations(W))
    tpcc.load(database, W, scale)
    recorder = attach_recorder(database)

    workload = tpcc.TpccWorkload(n_warehouses=W, scale=scale,
                                 mix=tpcc.NEW_ORDER_ONLY,
                                 remote_item_prob=0.2,
                                 invalid_item_prob=0.0)
    rng = random.Random(7)
    specs = [workload.new_order_spec(rng, w_id)
             for w_id in (1, 2) for __ in range(8)]
    outcomes = _run_all(database, specs)
    assert None not in outcomes
    assert any(outcomes), f"{label}/{scheme}: nothing committed"
    if scheme != "none":
        assert recorder.is_serializable(), (
            f"{label}/{scheme}: audit rejected the TPC-C history")


def test_none_scheme_violates_serializability_under_contention():
    """The negative control justifying the explicit scheme: hammering
    one hot account without CC loses updates, which both the audit and
    the money invariant detect."""
    database = ReactorDatabase(
        shared_everything_without_affinity(4, cc_scheme="none"),
        sb.declarations(N))
    sb.load(database, N)
    recorder = attach_recorder(database)

    hot = sb.reactor_name(0)
    others = [sb.reactor_name(i) for i in range(1, N)]
    specs = [sb.multi_transfer_spec("fully-async", hot,
                                    [others[i % (N - 1)],
                                     others[(i + 1) % (N - 1)]], 1.0)
             for i in range(40)]
    outcomes = _run_all(database, specs)
    assert all(outcomes), "no CC: nothing ever aborts"
    assert not recorder.is_serializable()
    assert sb.total_money(database, N) != pytest.approx(
        N * 2 * sb.INITIAL_BALANCE)
