"""Unit tests for repro.engine.timers."""

import pytest

from repro.engine import Timer
from repro.errors import SimulationError


@pytest.fixture
def fired():
    return []


@pytest.fixture
def timer(scheduler, fired):
    return Timer(scheduler, lambda: fired.append(scheduler.now), name="t")


class TestLifecycle:
    def test_idle_initially(self, timer):
        assert not timer.running
        assert timer.expires_at is None
        assert timer.remaining() == 0.0

    def test_start_arms(self, scheduler, timer):
        timer.start(5.0)
        assert timer.running
        assert timer.expires_at == 5.0
        assert timer.remaining() == 5.0

    def test_fires_at_expiry(self, scheduler, timer, fired):
        timer.start(5.0)
        scheduler.run()
        assert fired == [5.0]
        assert not timer.running

    def test_start_while_running_raises(self, timer):
        timer.start(5.0)
        with pytest.raises(SimulationError, match="already running"):
            timer.start(1.0)

    def test_restart_replaces_expiry(self, scheduler, timer, fired):
        timer.start(5.0)
        timer.restart(10.0)
        scheduler.run()
        assert fired == [10.0]

    def test_restart_when_idle_is_plain_start(self, scheduler, timer, fired):
        timer.restart(3.0)
        scheduler.run()
        assert fired == [3.0]

    def test_cancel_prevents_firing(self, scheduler, timer, fired):
        timer.start(5.0)
        timer.cancel()
        scheduler.run()
        assert fired == []
        assert not timer.running

    def test_cancel_idle_is_noop(self, timer):
        timer.cancel()
        assert not timer.running

    def test_can_start_again_after_firing(self, scheduler, timer, fired):
        timer.start(1.0)
        scheduler.run()
        timer.start(2.0)
        scheduler.run()
        assert fired == [1.0, 3.0]


class TestRemaining:
    def test_remaining_decreases_with_clock(self, scheduler, timer):
        timer.start(10.0)
        scheduler.call_at(4.0, lambda: None)
        scheduler.run(until=4.0)
        assert timer.remaining() == pytest.approx(6.0)

    def test_restart_from_callback_is_allowed(self, scheduler):
        times = []

        def on_fire():
            times.append(scheduler.now)
            if len(times) < 3:
                periodic.start(1.0)

        periodic = Timer(scheduler, on_fire)
        periodic.start(1.0)
        scheduler.run()
        assert times == [1.0, 2.0, 3.0]
