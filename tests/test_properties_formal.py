"""Property-based verification of Theorem 2.7 and model invariants.

Random reactor-model histories are generated with hypothesis; for
every one of them, serializability under the reactor model's
sub-transaction conflict notion must coincide with classic
serializability of the projected history — the equivalence the paper
proves (Section 2.3, Appendix A) — and the one conflict-edge builder
must yield exactly the all-pairs definition of the conflict relation.

Snapshot reads are positioned by the version they observed, not by
their place in the history: for readers of transaction-consistent
prefixes over writers serialized in TID order, the graph is the one
in which each reader sits at its snapshot point, so it is acyclic.
"""

from operator import attrgetter
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.formal import (
    commit,
    abort,
    history_of,
    is_serializable_classic,
    is_serializable_reactor,
    project,
    read,
    write,
)
from repro.formal.audit import certify_snapshot_isolation
from repro.formal.history import conflict_edges
from repro.formal.ops import READ, Op

N_TXNS = 4
N_REACTORS = 3
ITEMS = ("x", "y")

#: Two increments of x, both reading before either writes.
LOST_UPDATE = history_of([
    read(1, 1, 0, "x"), read(2, 1, 0, "x"),
    write(1, 1, 0, "x"), write(2, 1, 0, "x"),
    commit(1), commit(2),
])
#: Each reads both items and writes the one the other read.
WRITE_SKEW = history_of([
    read(1, 1, 0, "x"), read(1, 1, 0, "y"),
    read(2, 1, 0, "x"), read(2, 1, 0, "y"),
    write(1, 1, 0, "x"), write(2, 1, 0, "y"),
    commit(1), commit(2),
])
#: T1 buffered x and y; T2 read both before T1's install, which is
#: where T1's writes stand.  Serializable as T2, T1.
READ_BEFORE_INSTALL = history_of([
    read(1, 1, 0, "x"), read(1, 1, 0, "y"),
    read(2, 1, 0, "x"), read(2, 1, 0, "y"), commit(2),
    write(1, 0, 0, "x"), write(1, 0, 0, "y"), commit(1),
])


@st.composite
def reactor_histories(draw):
    """A random totally ordered reactor-model history.

    Each transaction owns a handful of sub-transactions; each
    sub-transaction is bound to one reactor; operations from all
    transactions interleave arbitrarily; a suffix of commit/abort
    events terminates every transaction.
    """
    n_txns = draw(st.integers(min_value=1, max_value=N_TXNS))
    events = []
    for txn in range(1, n_txns + 1):
        n_subs = draw(st.integers(min_value=1, max_value=3))
        for sub in range(1, n_subs + 1):
            reactor = draw(st.integers(min_value=0,
                                       max_value=N_REACTORS - 1))
            n_ops = draw(st.integers(min_value=1, max_value=3))
            for __ in range(n_ops):
                item = draw(st.sampled_from(ITEMS))
                if draw(st.booleans()):
                    events.append(write(txn, sub, reactor, item))
                else:
                    events.append(read(txn, sub, reactor, item))
    order = draw(st.permutations(events))
    history = list(order)
    for txn in range(1, n_txns + 1):
        if draw(st.booleans()):
            history.append(commit(txn))
        else:
            history.append(abort(txn))
    return history_of(history)


@settings(max_examples=200, deadline=None)
@given(reactor_histories())
@example(LOST_UPDATE)
@example(WRITE_SKEW)
@example(READ_BEFORE_INSTALL)
def test_theorem_2_7(history):
    """Reactor-model serializability iff classic serializability of
    the projection (Theorem 2.7)."""
    assert is_serializable_reactor(history) == \
        is_serializable_classic(project(history))


@settings(max_examples=200, deadline=None)
@given(reactor_histories())
@example(LOST_UPDATE)
@example(WRITE_SKEW)
@example(READ_BEFORE_INSTALL)
def test_edge_builder_is_the_all_pairs_definition(history):
    """Grouping by item loses and invents no edge: an ordered pair of
    conflicting operations of two committed transactions, no more."""
    ops = history.committed_operations()
    expected = {(a.txn, b.txn)
                for i, a in enumerate(ops) for b in ops[i + 1:]
                if a.txn != b.txn and a.conflicts_with(b)}
    assert history.conflict_edges() == expected
    assert conflict_edges(ops, attrgetter("reactor", "item")) == expected
    assert project(history).conflict_edges() == expected


def test_the_examples_get_their_verdicts():
    assert not is_serializable_reactor(LOST_UPDATE)
    assert not is_serializable_reactor(WRITE_SKEW)
    assert is_serializable_reactor(READ_BEFORE_INSTALL)


@settings(max_examples=100, deadline=None)
@given(reactor_histories())
def test_aborted_transactions_never_appear_in_graph(history):
    committed = history.committed_txns()
    for src, dst in history.conflict_edges():
        assert src in committed
        assert dst in committed


@settings(max_examples=100, deadline=None)
@given(reactor_histories())
def test_projection_preserves_committed_set(history):
    assert project(history).committed_txns() >= \
        history.committed_txns()


#: Reader txn ids start here; writer ``i`` is txn ``i`` at TID ``i``.
READERS = 100


@st.composite
def snapshot_runs(draw):
    """Writers 1..n run serially, writer ``i`` committing at TID
    ``i``; each reader picks a snapshot TID and reads items, observing
    the newest version at or below it.  A reader's reads land at random
    places in the history.

    Returns ``(history, placed)``: ``placed`` is the same run with every
    reader's reads as plain reads right after its snapshot's writer —
    the reader at its snapshot point.
    """
    n_writers = draw(st.integers(min_value=1, max_value=4))
    blocks: list[list] = [[]]  # blocks[i]: writer i's operations
    versions = {item: [0] for item in ITEMS}
    for tid in range(1, n_writers + 1):
        block = []
        for item in draw(st.lists(st.sampled_from(ITEMS), min_size=1,
                                  unique=True)):
            if draw(st.booleans()):
                block.append(read(tid, 1, 0, item))
            block.append(write(tid, 0, 0, item, tid))
            versions[item].append(tid)
        blocks.append(block)
    serial = [op for block in blocks for op in block]
    history, placed_blocks = list(serial), [list(b) for b in blocks]
    for txn in range(READERS, READERS + draw(
            st.integers(min_value=1, max_value=3))):
        snapshot = draw(st.integers(min_value=0, max_value=n_writers))
        for item in draw(st.lists(st.sampled_from(ITEMS), min_size=1,
                                  unique=True)):
            observed = max(t for t in versions[item] if t <= snapshot)
            history.insert(
                draw(st.integers(min_value=0, max_value=len(history))),
                _snapshot_read(txn, 0, item, observed, snapshot))
            placed_blocks[snapshot].append(read(txn, 0, 0, item))
    txns = {op.txn for op in history}
    terminals = [commit(txn) for txn in sorted(txns)]
    placed = [op for block in placed_blocks for op in block]
    return history_of(history + terminals), history_of(placed + terminals)


def _snapshot_read(txn: int, reactor: int, item: str, tid: int,
                   snapshot: int) -> Op:
    """A read served at snapshot TID ``snapshot`` that observed the
    version written at ``tid`` (0: no version at or below it)."""
    return Op(READ, txn, 0, reactor, item, tid, snapshot)


def _recorded(history) -> SimpleNamespace:
    """What :func:`certify_snapshot_isolation` reads off a recorder."""
    return SimpleNamespace(history=history)


@settings(max_examples=300, deadline=None)
@given(snapshot_runs())
def test_snapshot_readers_sit_at_their_snapshot_point(run):
    history, placed = run
    assert history.conflict_edges() == placed.conflict_edges()
    assert project(history).conflict_edges() == placed.conflict_edges()
    assert is_serializable_reactor(history)
    assert certify_snapshot_isolation(_recorded(history))["ok"]


@settings(max_examples=200, deadline=None)
@given(snapshot_runs(), st.data())
def test_a_stale_snapshot_read_is_rejected(run, data):
    """Nudge one snapshot read below the newest version at its
    snapshot: the certificate names a stale read."""
    history, __ = run
    writes = {(op.item, op.tid) for op in history.operations()
              if op.kind == "w"}
    stale = [i for i, op in enumerate(history.events)
             if getattr(op, "snapshot", None) is not None
             and op.tid > 0 and (op.item, op.tid) in writes]
    if not stale:
        return
    index = data.draw(st.sampled_from(stale))
    op = history.events[index]
    history.events[index] = _snapshot_read(op.txn, op.reactor, op.item,
                                           0, op.snapshot)
    report = certify_snapshot_isolation(_recorded(history))
    assert [v["kind"] for v in report["violations"]] == ["stale-read"]


def test_a_fractured_snapshot_is_a_cycle():
    """A reader that saw writer 1's x but not its y read no prefix."""
    history = history_of([
        write(1, 0, 0, "x", 1), write(1, 0, 0, "y", 1), commit(1),
        _snapshot_read(2, 0, "x", 1, 1), _snapshot_read(2, 0, "y", 0, 1),
        commit(2),
    ])
    assert not is_serializable_reactor(history)
    assert not is_serializable_classic(project(history))
    report = certify_snapshot_isolation(_recorded(history))
    assert [v["kind"] for v in report["violations"]] == ["stale-read"]


@settings(max_examples=50, deadline=None)
@given(reactor_histories())
def test_serial_prefix_of_single_txn_always_serializable(history):
    """A history containing a single committed transaction is always
    serializable, whatever the interleaving with aborted ones."""
    committed = history.committed_txns()
    if len(committed) <= 1:
        assert is_serializable_reactor(history)
