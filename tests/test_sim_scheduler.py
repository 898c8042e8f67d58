"""Unit tests for the discrete-event scheduler and virtual clock."""

import pytest

from repro.errors import SimulationError
from repro.runtime.futures import SimFuture
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import SimScheduler


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_is_monotonic(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_advance_to_same_time_is_fine(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_reset(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        clock.reset()
        assert clock.now == 0.0


class TestSimScheduler:
    def test_events_run_in_time_order(self):
        scheduler = SimScheduler()
        order = []
        scheduler.after(3.0, order.append, "c")
        scheduler.after(1.0, order.append, "a")
        scheduler.after(2.0, order.append, "b")
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        scheduler = SimScheduler()
        order = []
        scheduler.after(1.0, order.append, 1)
        scheduler.after(1.0, order.append, 2)
        scheduler.after(1.0, order.append, 3)
        scheduler.run()
        assert order == [1, 2, 3]

    def test_clock_advances_with_events(self):
        scheduler = SimScheduler()
        seen = []
        scheduler.after(2.5, lambda: seen.append(scheduler.now))
        scheduler.run()
        assert seen == [2.5]
        assert scheduler.now == 2.5

    def test_events_can_schedule_events(self):
        scheduler = SimScheduler()
        seen = []

        def first():
            scheduler.after(1.0, lambda: seen.append(scheduler.now))

        scheduler.after(1.0, first)
        scheduler.run()
        assert seen == [2.0]

    def test_cancelled_events_are_skipped(self):
        scheduler = SimScheduler()
        seen = []
        event = scheduler.after(1.0, seen.append, "x")
        event.cancel()
        scheduler.run()
        assert seen == []

    def test_run_until_stops_early(self):
        scheduler = SimScheduler()
        seen = []
        scheduler.after(1.0, seen.append, "early")
        scheduler.after(10.0, seen.append, "late")
        scheduler.run(until=5.0)
        assert seen == ["early"]
        assert scheduler.now == 5.0
        scheduler.run()
        assert seen == ["early", "late"]

    def test_cannot_schedule_in_the_past(self):
        scheduler = SimScheduler()
        scheduler.after(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        scheduler = SimScheduler()
        with pytest.raises(SimulationError):
            scheduler.after(-1.0, lambda: None)

    def test_soon_runs_at_current_time(self):
        scheduler = SimScheduler()
        times = []
        scheduler.after(3.0, lambda: scheduler.soon(
            lambda: times.append(scheduler.now)))
        scheduler.run()
        assert times == [3.0]

    def test_pending_counts_live_events(self):
        scheduler = SimScheduler()
        event = scheduler.after(1.0, lambda: None)
        scheduler.after(2.0, lambda: None)
        assert scheduler.pending() == 2
        event.cancel()
        assert scheduler.pending() == 1

    def test_dispatch_counter(self):
        scheduler = SimScheduler()
        for __ in range(5):
            scheduler.soon(lambda: None)
        scheduler.run()
        assert scheduler.events_dispatched == 5


class TestRunUntilBoundary:
    """run(until=...) quiesce contract: events stamped exactly *at*
    ``until`` run before the call returns (regression: they used to
    be skipped when their timestamp drifted a float ulp past it)."""

    def test_event_exactly_at_until_runs(self):
        scheduler = SimScheduler()
        seen = []
        scheduler.at(5.0, seen.append, "at-boundary")
        scheduler.at(5.0 + 1e-6, seen.append, "beyond")
        scheduler.run(until=5.0)
        assert seen == ["at-boundary"]
        assert scheduler.now == 5.0
        assert scheduler.pending() == 1

    def test_chain_scheduled_at_until_runs(self):
        # An at-boundary event scheduling another soon() at the same
        # timestamp: the whole same-time chain belongs to the window.
        scheduler = SimScheduler()
        seen = []
        scheduler.at(5.0, lambda: scheduler.soon(seen.append, "chain"))
        scheduler.run(until=5.0)
        assert seen == ["chain"]

    def test_float_drift_within_tolerance_runs(self):
        # after(0.1 + 0.2) lands at 0.30000000000000004; run(until=0.3)
        # must still dispatch it — the same 1e-9 slack at() applies to
        # past timestamps applies at the until boundary.
        scheduler = SimScheduler()
        seen = []
        scheduler.after(0.1 + 0.2, seen.append, "drifted")
        scheduler.run(until=0.3)
        assert seen == ["drifted"]

    def test_event_beyond_tolerance_stays_queued(self):
        scheduler = SimScheduler()
        seen = []
        scheduler.at(5.0 + 1e-6, seen.append, "late")
        scheduler.run(until=5.0)
        assert seen == []
        assert scheduler.pending() == 1


class TestBackendHooks:
    """SimScheduler's execution-backend surface (repro.runtime.backend)
    restates the pre-backend behaviour exactly."""

    def test_identity_attrs(self):
        scheduler = SimScheduler()
        assert scheduler.name == "sim"
        assert scheduler.is_virtual is True
        assert scheduler.future_class is SimFuture

    def test_post_matches_soon(self):
        scheduler = SimScheduler()
        order = []
        scheduler.soon(order.append, "a")
        scheduler.post(3, order.append, "b")
        scheduler.soon(order.append, "c")
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_busy_advances_virtual_time(self):
        scheduler = SimScheduler()
        times = []
        scheduler.busy(7.5, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [7.5]

    def test_guarded_is_a_plain_call_and_nests(self):
        scheduler = SimScheduler()
        assert scheduler.guarded(
            (), scheduler.guarded, [0, 1], divmod, 7, 2) == (3, 1)
        assert scheduler.pending() == 0
