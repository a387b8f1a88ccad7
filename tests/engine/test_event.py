"""Unit tests for repro.engine.event."""

from repro.engine import Event, EventPriority


def make(time, priority=EventPriority.TIMER, seq=0, name=None):
    return Event(time, int(priority), seq, lambda: None, name)


class TestOrdering:
    def test_earlier_time_sorts_first(self):
        assert make(1.0) < make(2.0)

    def test_same_time_lower_priority_first(self):
        a = make(1.0, EventPriority.DELIVERY, seq=5)
        b = make(1.0, EventPriority.TIMER, seq=1)
        assert a < b

    def test_same_time_same_priority_fifo(self):
        a = make(1.0, seq=1)
        b = make(1.0, seq=2)
        assert a < b

    def test_sort_key_matches_comparison(self):
        a, b = make(1.0, seq=1), make(1.0, seq=2)
        assert (a.sort_key() < b.sort_key()) == (a < b)

    def test_delivery_before_processing_before_timer(self):
        assert EventPriority.DELIVERY < EventPriority.PROCESSING < EventPriority.TIMER


class TestCancellation:
    def test_fresh_event_not_cancelled(self):
        assert not make(0.0).cancelled

    def test_cancel_marks_event(self):
        event = make(0.0)
        event.cancel()
        assert event.cancelled

    def test_cancel_is_idempotent(self):
        event = make(0.0)
        event.cancel()
        event.cancel()
        assert event.cancelled


class TestNaming:
    def test_explicit_name_kept(self):
        assert make(0.0, name="mrai").name == "mrai"

    def test_name_defaults_to_callable_name(self):
        def my_action():
            pass

        event = Event(0.0, 0, 0, my_action)
        assert event.name == "my_action"
