"""Unit tests for repro.engine.scheduler."""

import pytest

from repro.engine import EventPriority
from repro.errors import SchedulingError


class TestClock:
    def test_starts_at_zero(self, scheduler):
        assert scheduler.now == 0.0

    def test_advances_to_event_time(self, scheduler):
        scheduler.call_at(3.5, lambda: None)
        scheduler.run()
        assert scheduler.now == 3.5

    def test_run_until_advances_clock_to_horizon_when_quiescent(self, scheduler):
        scheduler.call_at(1.0, lambda: None)
        scheduler.run(until=10.0)
        assert scheduler.now == 10.0

    def test_run_until_leaves_later_events_pending(self, scheduler):
        fired = []
        scheduler.call_at(5.0, lambda: fired.append(5))
        scheduler.call_at(15.0, lambda: fired.append(15))
        scheduler.run(until=10.0)
        assert fired == [5]
        assert scheduler.pending == 1
        assert scheduler.now == 10.0

    def test_event_exactly_at_horizon_fires(self, scheduler):
        fired = []
        scheduler.call_at(10.0, lambda: fired.append(1))
        scheduler.run(until=10.0)
        assert fired == [1]


class TestOrderingSemantics:
    def test_events_fire_in_time_order(self, scheduler):
        order = []
        scheduler.call_at(2.0, lambda: order.append("b"))
        scheduler.call_at(1.0, lambda: order.append("a"))
        scheduler.call_at(3.0, lambda: order.append("c"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_by_priority(self, scheduler):
        order = []
        scheduler.call_at(1.0, lambda: order.append("timer"), EventPriority.TIMER)
        scheduler.call_at(1.0, lambda: order.append("delivery"), EventPriority.DELIVERY)
        scheduler.run()
        assert order == ["delivery", "timer"]

    def test_simultaneous_same_priority_is_fifo(self, scheduler):
        order = []
        for tag in range(5):
            scheduler.call_at(1.0, lambda t=tag: order.append(t))
        scheduler.run()
        assert order == [0, 1, 2, 3, 4]

    def test_event_scheduled_during_run_fires(self, scheduler):
        order = []
        scheduler.call_at(
            1.0, lambda: scheduler.call_after(1.0, lambda: order.append("inner"))
        )
        scheduler.run()
        assert order == ["inner"]
        assert scheduler.now == 2.0


class TestErrors:
    def test_scheduling_in_past_raises(self, scheduler):
        scheduler.call_at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulingError):
            scheduler.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.call_after(-0.1, lambda: None)

    def test_event_budget_exceeded_raises(self, scheduler):
        def reschedule():
            scheduler.call_after(1.0, reschedule)

        scheduler.call_after(1.0, reschedule)
        with pytest.raises(SchedulingError, match="budget"):
            scheduler.run(max_events=100)

    def test_run_is_not_reentrant(self, scheduler):
        def inner():
            scheduler.run()

        scheduler.call_at(1.0, inner)
        with pytest.raises(SchedulingError, match="re-entrant"):
            scheduler.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, scheduler):
        fired = []
        handle = scheduler.call_at(1.0, lambda: fired.append(1))
        handle.cancel()
        scheduler.run()
        assert fired == []

    def test_cancelled_event_skipped_by_peek(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        handle.cancel()
        assert scheduler.peek_time() == 2.0

    def test_peek_time_none_when_quiescent(self, scheduler):
        assert scheduler.peek_time() is None


class TestControl:
    def test_stop_halts_run(self, scheduler):
        fired = []
        scheduler.call_at(1.0, lambda: (fired.append(1), scheduler.stop()))
        scheduler.call_at(2.0, lambda: fired.append(2))
        scheduler.run()
        assert fired == [1]
        assert scheduler.pending == 1

    def test_step_fires_single_event(self, scheduler):
        fired = []
        scheduler.call_at(1.0, lambda: fired.append(1))
        scheduler.call_at(2.0, lambda: fired.append(2))
        assert scheduler.step()
        assert fired == [1]

    def test_step_on_empty_heap_returns_false(self, scheduler):
        assert not scheduler.step()

    def test_events_processed_counter(self, scheduler):
        for t in (1.0, 2.0, 3.0):
            scheduler.call_at(t, lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 3
