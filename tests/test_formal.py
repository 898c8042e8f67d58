"""Unit tests for the formal model (Section 2.3)."""

from operator import attrgetter

from repro.formal import (
    ClassicHistory,
    ReactorHistory,
    abort,
    commit,
    has_cycle,
    history_of,
    is_serializable_classic,
    is_serializable_reactor,
    project,
    project_op,
    read,
    serialization_order,
    theorem_2_7_holds,
    write,
)
from repro.formal.history import conflict_edges


class TestOps:
    def test_conflicts(self):
        assert write(1, 1, 0, "x").conflicts_with(read(2, 1, 0, "x"))
        assert write(1, 1, 0, "x").conflicts_with(write(2, 1, 0, "x"))
        assert not read(1, 1, 0, "x").conflicts_with(
            read(2, 1, 0, "x"))

    def test_items_disjoint_across_reactors(self):
        assert not write(1, 1, 0, "x").conflicts_with(
            write(2, 1, 1, "x"))

    def test_projection_name_mapping(self):
        projected = project_op(read(1, 2, 7, "x"))
        assert projected.item == "7::x"
        assert projected.txn == 1


class TestCycleDetection:
    def test_acyclic(self):
        assert not has_cycle([1, 2, 3], {(1, 2), (2, 3)})

    def test_self_loop(self):
        assert has_cycle([1], {(1, 1)})

    def test_two_cycle(self):
        assert has_cycle([1, 2], {(1, 2), (2, 1)})

    def test_long_cycle(self):
        edges = {(1, 2), (2, 3), (3, 4), (4, 1)}
        assert has_cycle([1, 2, 3, 4], edges)

    def test_diamond_is_acyclic(self):
        assert not has_cycle([1, 2, 3, 4],
                             {(1, 2), (1, 3), (2, 4), (3, 4)})

    def test_serialization_order(self):
        order = serialization_order([1, 2, 3], {(2, 1), (1, 3)})
        assert order.index(2) < order.index(1) < order.index(3)

    def test_serialization_order_none_on_cycle(self):
        assert serialization_order([1, 2], {(1, 2), (2, 1)}) is None


class TestHistories:
    def test_serial_history_serializable(self):
        history = history_of([
            read(1, 1, 0, "x"), write(1, 1, 0, "x"), commit(1),
            read(2, 1, 0, "x"), write(2, 1, 0, "x"), commit(2),
        ])
        assert is_serializable_reactor(history)

    def test_classic_lost_update_cycle(self):
        history = history_of([
            read(1, 1, 0, "x"), read(2, 2, 0, "x"),
            write(1, 1, 0, "x"), write(2, 2, 0, "x"),
            commit(1), commit(2),
        ])
        assert not is_serializable_reactor(history)
        assert not is_serializable_classic(project(history))

    def test_aborted_txns_ignored(self):
        history = history_of([
            read(1, 1, 0, "x"), read(2, 2, 0, "x"),
            write(1, 1, 0, "x"), write(2, 2, 0, "x"),
            commit(1), abort(2),
        ])
        assert is_serializable_reactor(history)

    def test_cross_reactor_cycle(self):
        # T1 before T2 on reactor 0, T2 before T1 on reactor 1.
        history = history_of([
            write(1, 1, 0, "x"), write(2, 1, 0, "x"),
            write(2, 2, 1, "y"), write(1, 2, 1, "y"),
            commit(1), commit(2),
        ])
        assert not is_serializable_reactor(history)
        assert theorem_2_7_holds(history)

    def test_committed_txns(self):
        history = history_of([
            write(1, 1, 0, "x"), commit(1),
            write(2, 1, 0, "x"), abort(2),
        ])
        assert history.committed_txns() == {1}

    def test_subtxn_edges_project_to_txn_edges(self):
        history = history_of([
            write(1, 1, 0, "x"), read(2, 5, 0, "x"),
            commit(1), commit(2),
        ])
        assert history.conflict_edges() == {(1, 2)}
        assert conflict_edges(history.operations(),
                              attrgetter("reactor", "item")) == {(1, 2)}

    def test_edges_pair_only_within_one_item(self):
        ops = [write(1, 1, 0, "x"), write(2, 1, 1, "x"),
               read(3, 1, 0, "y"), write(1, 1, 0, "y"),
               read(2, 1, 0, "x"), read(3, 1, 0, "x")]
        assert conflict_edges(ops, attrgetter("reactor", "item")) == {
            (3, 1), (1, 2), (1, 3)}
        # Without the reactor in the key, "x" is one item again.
        assert conflict_edges(ops, attrgetter("item")) == {
            (3, 1), (1, 2), (1, 3), (2, 3)}

    def test_projection_preserves_event_count(self):
        events = [write(1, 1, 0, "x"), read(1, 2, 1, "y"), commit(1)]
        projected = project(history_of(events))
        assert len(projected.events) == 3

    def test_projection_type(self):
        assert isinstance(project(ReactorHistory()), ClassicHistory)
