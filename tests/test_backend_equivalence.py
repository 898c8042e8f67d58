"""Sim-vs-threads execution backend equivalence.

The certify-then-measure contract (docs/backends.md): the same
deployment produces the same committed state on the virtual-time sim
backend and the wall-clock ``threads`` backend, and both runs pass the
formal certificates.  Interleavings legitimately differ — only
*committed outcomes* must agree — so these workloads are built to have
backend-independent final state: every logical operation is driven to
a committed conclusion (aborts are retried), and concurrent writes are
either commutative sums or single-writer-per-key.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.durability.config import DurabilityConfig
from repro.formal.audit import attach_recorder, certify_all
from repro.workloads import smallbank as sb
from repro.workloads import ycsb

N_CUSTOMERS = 8
N_CONTAINERS = 2
N_KEYS = 16
MAX_RETRIES = 200
#: Resubmit backoff per attempt.  Must exceed the threads backend's
#: inline-execution window (INLINE_DELAY_US): an immediate NO_WAIT
#: retry re-runs on the aborting thread and can re-hit the very lock
#: that refused it for the whole retry budget; deferring through the
#: timer lets the holder finish first.
RETRY_BACKOFF_US = 100.0


def _run_to_commit(database, ops):
    """Submit every ``(reactor, proc, args)`` op and drive each to a
    *committed* conclusion, resubmitting on abort.

    Retrying makes the committed-effect set identical on every backend
    and CC scheme: real-hardware interleavings may abort different
    transactions than the simulation, but each logical operation lands
    exactly once either way.
    """
    pending = {"n": len(ops)}

    def make_on_done(op, tries=MAX_RETRIES):
        def on_done(root, committed, reason, result):
            if committed:
                pending["n"] -= 1
                return
            assert tries > 0, f"op {op} aborted too often: {reason}"
            reactor, proc, args = op
            attempt = MAX_RETRIES - tries + 1
            database.scheduler.after(
                RETRY_BACKOFF_US * attempt,
                lambda: database.submit(
                    reactor, proc, *args,
                    on_done=make_on_done(op, tries - 1)))
        return on_done

    for op in ops:
        reactor, proc, args = op
        database.submit(reactor, proc, *args,
                        on_done=make_on_done(op))
    database.scheduler.run()
    assert pending["n"] == 0, f"{pending['n']} ops never committed"


def _smallbank_ops():
    """A deterministic op list touching every customer: commutative
    per-account sums plus cross-container transfers, so the final
    balances are order-independent, and read-only balance checks
    (snapshot reads when the deployment snapshots them)."""
    ops = []
    for i in range(48):
        cust = sb.reactor_name(i % N_CUSTOMERS)
        if i % 4 == 0:
            ops.append((cust, "balance", ()))
        if i % 3 == 0:
            ops.append((cust, "transact_saving", (10.0 + i,)))
        elif i % 3 == 1:
            ops.append((cust, "deposit_checking", (5.0 + i,)))
        else:
            other = sb.reactor_name((i + 3) % N_CUSTOMERS)
            ops.append(sb.multi_transfer_spec(
                "fully-async", cust, [other], 2.0))
    return ops


def _smallbank_state(backend, scheme, durability=None,
                     snapshot_reads=False):
    deployment = shared_nothing(
        N_CONTAINERS, mpl=4, cc_scheme=scheme,
        snapshot_reads=snapshot_reads,
        placement=RangePlacement(N_CUSTOMERS // N_CONTAINERS),
        durability=durability, backend=backend)
    database = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(database, N_CUSTOMERS)
    attach_recorder(database)
    _run_to_commit(database, _smallbank_ops())
    state = {
        name: {
            table: sorted(
                (tuple(sorted(row.items()))
                 for row in database.table_rows(name, table)))
            for table in ("savings", "checking")
        }
        for name in database.reactor_names()
    }
    certificate = certify_all(database)
    total = sb.total_money(database, N_CUSTOMERS)
    database.close()
    return state, total, certificate


@pytest.mark.parametrize("scheme, snapshot_reads", [
    ("occ", False), ("2pl_nowait", False), ("occ", True)])
def test_smallbank_state_matches_sim(scheme, snapshot_reads):
    sim_state, sim_total, sim_cert = _smallbank_state(
        "sim", scheme, snapshot_reads=snapshot_reads)
    thr_state, thr_total, thr_cert = _smallbank_state(
        "threads", scheme, snapshot_reads=snapshot_reads)
    assert sim_cert["ok"], sim_cert["failures"]
    assert thr_cert["ok"], thr_cert["failures"]
    for cert in (sim_cert, thr_cert):
        # Snapshot readers join the one serializability graph.
        assert bool(cert["snapshot_isolation"]["reads_checked"]) == \
            snapshot_reads
    assert thr_total == pytest.approx(sim_total)
    assert thr_state == sim_state


def test_smallbank_group_commit_durability():
    durability = DurabilityConfig(enabled=True, mode="group")
    sim_state, __, sim_cert = _smallbank_state(
        "sim", "occ", durability=durability)
    thr_state, __, thr_cert = _smallbank_state(
        "threads", "occ", durability=durability)
    assert sim_cert["ok"] and thr_cert["ok"]
    assert thr_state == sim_state


def _ycsb_state(backend):
    deployment = shared_nothing(
        N_CONTAINERS, mpl=4, cc_scheme="occ",
        placement=RangePlacement(N_KEYS // N_CONTAINERS),
        backend=backend)
    decls = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(N_KEYS)]
    database = ReactorDatabase(deployment, decls)
    for i in range(N_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv",
                      [{"key": name, "value": "x" * ycsb.RECORD_SIZE}])
    attach_recorder(database)
    # Exactly one (prepending, hence order-sensitive) update per key:
    # single-writer-per-key keeps the final image backend-independent.
    # multi_update fans the second half out through remote sub-calls.
    ops = [(ycsb.key_name(i), "update_one", (f"d{i:03d}",))
           for i in range(N_KEYS // 2)]
    ops.append((ycsb.key_name(0), "multi_update",
                ([ycsb.key_name(i)
                  for i in range(N_KEYS // 2, N_KEYS)], "bulk")))
    _run_to_commit(database, ops)
    state = {ycsb.key_name(i):
             database.table_rows(ycsb.key_name(i), "kv")
             for i in range(N_KEYS)}
    certificate = certify_all(database)
    database.close()
    return state, certificate


def test_ycsb_state_matches_sim():
    sim_state, sim_cert = _ycsb_state("sim")
    thr_state, thr_cert = _ycsb_state("threads")
    assert sim_cert["ok"], sim_cert["failures"]
    assert thr_cert["ok"], thr_cert["failures"]
    assert thr_state == sim_state
    # And the updates actually landed: every first-half key carries
    # its delta, every second-half key the bulk prefix.
    assert thr_state[ycsb.key_name(1)][0]["value"].startswith("d001")
    assert thr_state[ycsb.key_name(N_KEYS - 1)][0]["value"] \
        .startswith("bulk")
