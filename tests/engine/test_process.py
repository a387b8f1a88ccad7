"""Unit tests for repro.engine.process (the serialized router CPU)."""

import pytest

from repro.engine import SerialProcessor


@pytest.fixture
def cpu(scheduler):
    return SerialProcessor(scheduler, name="cpu")


class TestSerialization:
    def test_single_job_runs_after_service_time(self, scheduler, cpu):
        done = []
        cpu.submit(0.25, lambda: done.append(scheduler.now))
        scheduler.run()
        assert done == [0.25]

    def test_jobs_are_serialized_fifo(self, scheduler, cpu):
        done = []
        cpu.submit(0.2, lambda: done.append(("a", scheduler.now)))
        cpu.submit(0.3, lambda: done.append(("b", scheduler.now)))
        cpu.submit(0.1, lambda: done.append(("c", scheduler.now)))
        scheduler.run()
        assert done == [("a", 0.2), ("b", 0.5), ("c", 0.6)]

    def test_job_submitted_mid_run_queues_behind_current(self, scheduler, cpu):
        done = []
        cpu.submit(1.0, lambda: done.append(("first", scheduler.now)))
        scheduler.call_at(
            0.5, lambda: cpu.submit(1.0, lambda: done.append(("second", scheduler.now)))
        )
        scheduler.run()
        assert done == [("first", 1.0), ("second", 2.0)]

    def test_idle_gap_then_new_job(self, scheduler, cpu):
        done = []
        cpu.submit(0.1, lambda: done.append(scheduler.now))
        scheduler.call_at(5.0, lambda: cpu.submit(0.1, lambda: done.append(scheduler.now)))
        scheduler.run()
        assert done == [pytest.approx(0.1), pytest.approx(5.1)]

    def test_job_body_may_submit_more_work(self, scheduler, cpu):
        done = []

        def chain():
            done.append(scheduler.now)
            if len(done) < 3:
                cpu.submit(0.5, chain)

        cpu.submit(0.5, chain)
        scheduler.run()
        assert done == [0.5, 1.0, 1.5]


class TestIntrospection:
    def test_busy_flag(self, scheduler, cpu):
        assert not cpu.busy
        cpu.submit(1.0, lambda: None)
        assert cpu.busy
        scheduler.run()
        assert not cpu.busy

    def test_queue_length_counts_waiting_only(self, scheduler, cpu):
        cpu.submit(1.0, lambda: None)
        cpu.submit(1.0, lambda: None)
        cpu.submit(1.0, lambda: None)
        assert cpu.queue_length == 2

    def test_jobs_completed_counter(self, scheduler, cpu):
        for _ in range(4):
            cpu.submit(0.1, lambda: None)
        scheduler.run()
        assert cpu.jobs_completed == 4

    def test_negative_service_time_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.submit(-0.1, lambda: None)

    def test_zero_service_time_allowed(self, scheduler, cpu):
        done = []
        cpu.submit(0.0, lambda: done.append(scheduler.now))
        scheduler.run()
        assert done == [0.0]
