"""Tests for housekeeping events: quiescence, settle windows, upgrades."""

import pytest

from repro.engine import SerialProcessor, Timer


class TestQuiescence:
    def test_housekeeping_does_not_block_quiescence(self, scheduler):
        fired = []
        scheduler.call_at(1.0, lambda: fired.append("real"))

        def heartbeat():
            fired.append("hk")
            scheduler.call_after(5.0, heartbeat, housekeeping=True)

        scheduler.call_after(5.0, heartbeat, housekeeping=True)
        end = scheduler.run(max_events=100)
        # The substantive event fires; the self-re-arming heartbeat never
        # keeps the run alive.
        assert "real" in fired
        assert end == pytest.approx(1.0)

    def test_substantive_counts_are_exact_under_cancel(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        assert scheduler.substantive_pending == 1
        handle.cancel()
        assert scheduler.substantive_pending == 0
        # Double-cancel must not corrupt the counter.
        handle.cancel()
        assert scheduler.substantive_pending == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        scheduler.run()
        handle.cancel()
        assert scheduler.substantive_pending == 0

    def test_last_substantive_time_ignores_housekeeping(self, scheduler):
        scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(4.0, lambda: None, housekeeping=True)
        scheduler.run(until=10.0)
        assert scheduler.last_event_time == pytest.approx(4.0)
        assert scheduler.last_substantive_event_time == pytest.approx(1.0)

    def test_next_substantive_time_skips_housekeeping(self, scheduler):
        scheduler.call_at(2.0, lambda: None, housekeeping=True)
        assert scheduler.next_substantive_time() is None
        scheduler.call_at(5.0, lambda: None)
        assert scheduler.next_substantive_time() == pytest.approx(5.0)

    def test_pending_by_name_groups_families(self, scheduler):
        scheduler.call_at(1.0, lambda: None, name="mrai:1:d")
        scheduler.call_at(2.0, lambda: None, name="mrai:2:d")
        scheduler.call_at(3.0, lambda: None, name="hold:1", housekeeping=True)
        scheduler.call_at(4.0, lambda: None)
        census = scheduler.pending_by_name()
        assert census["mrai"] == 2
        assert census["hold"] == 1
        assert census["<lambda>"] == 1  # unnamed events fall back to __name__


class TestSettle:
    def test_settle_lets_housekeeping_detections_fire(self, scheduler):
        """A detection armed on a housekeeping timer fires if it lands
        within the settle window after the last substantive event."""
        fired = []
        scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(4.0, lambda: fired.append("detect"), housekeeping=True)
        scheduler.run(settle=5.0)
        assert fired == ["detect"]

    def test_settle_bounds_the_quiet_period(self, scheduler):
        fired = []
        scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(20.0, lambda: fired.append("late"), housekeeping=True)
        scheduler.run(settle=5.0)
        # 20.0 > 1.0 + 5.0: the late heartbeat stays queued.
        assert fired == []

    def test_settle_resets_on_new_substantive_work(self, scheduler):
        """Housekeeping that spawns substantive work extends the run."""
        fired = []

        def detect():
            fired.append("detect")
            scheduler.call_after(1.0, lambda: fired.append("reaction"))

        scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(4.0, detect, housekeeping=True)
        scheduler.call_at(9.0, lambda: fired.append("second"), housekeeping=True)
        scheduler.run(settle=5.0)
        # reaction at t=5 is substantive; quiet clock restarts there, so the
        # t=9 heartbeat is still inside the window.
        assert fired == ["detect", "reaction", "second"]


class TestHousekeepingTimers:
    def test_timer_housekeeping_flag_propagates(self, scheduler):
        timer = Timer(scheduler, callback=lambda: None, housekeeping=True)
        timer.start(3.0)
        assert scheduler.substantive_pending == 0
        timer2 = Timer(scheduler, callback=lambda: None)
        timer2.start(3.0)
        assert scheduler.substantive_pending == 1


class TestProcessorHousekeeping:
    def test_housekeeping_job_does_not_block_quiescence(self, scheduler):
        cpu = SerialProcessor(scheduler)
        done = []
        cpu.submit(1.0, lambda: done.append("hk"), housekeeping=True)
        assert scheduler.substantive_pending == 0
        scheduler.run(until=5.0)
        assert done == ["hk"]

    def test_substantive_behind_housekeeping_upgrades_in_service(self, scheduler):
        """A substantive job queued behind an in-service housekeeping job
        must keep the scheduler substantive-pending — the housekeeping
        completion event is what starts the substantive service slot."""
        cpu = SerialProcessor(scheduler)
        done = []
        cpu.submit(1.0, lambda: done.append("hk"), housekeeping=True)
        cpu.submit(1.0, lambda: done.append("real"))
        assert scheduler.substantive_pending > 0
        end = scheduler.run(max_events=10)
        assert done == ["hk", "real"]
        assert end == pytest.approx(2.0)

    def test_clear_drops_queue_and_in_service_job(self, scheduler):
        cpu = SerialProcessor(scheduler)
        done = []
        cpu.submit(1.0, lambda: done.append("a"))
        cpu.submit(1.0, lambda: done.append("b"))
        dropped = cpu.clear()
        assert dropped == 2
        assert cpu.jobs_dropped == 2
        scheduler.run(until=10.0)
        assert done == []
        assert not cpu.busy
        assert scheduler.substantive_pending == 0

    def test_processor_usable_after_clear(self, scheduler):
        cpu = SerialProcessor(scheduler)
        done = []
        cpu.submit(1.0, lambda: done.append("lost"))
        cpu.clear()
        cpu.submit(0.5, lambda: done.append("fresh"))
        scheduler.run()
        assert done == ["fresh"]
