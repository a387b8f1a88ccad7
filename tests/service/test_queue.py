"""The durable job queue: submissions survive reopen, torn tails are
truncated, corrupt records are skipped and reported, two writers fail
fast, compaction is atomic."""

import pytest

from repro.errors import JournalError, ServiceError
from repro.service import DurableJobQueue, JobSpec, ServiceState
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING

from daemon_harness import DaemonHarness


SPEC = JobSpec(kind="figure", params={"id": "theory", "quick": True})


class TestSubmitAndReplay:
    def test_sequential_ids(self, tmp_path):
        with DurableJobQueue(tmp_path / "jobs.jsonl") as queue:
            assert queue.submit(SPEC).job_id == "job-1"
            assert queue.submit(SPEC).job_id == "job-2"

    def test_replay_restores_jobs_and_counter(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with DurableJobQueue(path) as queue:
            queue.submit(SPEC, now=10.0)
            queue.submit(SPEC, now=11.0)
            queue.transition("job-1", DONE, {"trials": 4})
        with DurableJobQueue(path) as queue:
            jobs = queue.jobs()
            assert [view.job_id for view in jobs] == ["job-1", "job-2"]
            assert jobs[0].state == DONE
            assert jobs[0].detail == {"trials": 4}
            assert jobs[1].state == QUEUED
            # The id counter resumes past the replayed jobs.
            assert queue.submit(SPEC).job_id == "job-3"

    def test_pending_excludes_terminal(self, tmp_path):
        with DurableJobQueue(tmp_path / "jobs.jsonl") as queue:
            queue.submit(SPEC)
            queue.submit(SPEC)
            queue.transition("job-1", CANCELLED)
            assert [view.job_id for view in queue.pending()] == ["job-2"]

    def test_unknown_job_raises(self, tmp_path):
        with DurableJobQueue(tmp_path / "jobs.jsonl") as queue:
            with pytest.raises(ServiceError, match="unknown job"):
                queue.get("job-9")
            with pytest.raises(ServiceError, match="unknown job"):
                queue.transition("job-9", DONE)

    def test_unknown_state_raises(self, tmp_path):
        with DurableJobQueue(tmp_path / "jobs.jsonl") as queue:
            queue.submit(SPEC)
            with pytest.raises(ServiceError, match="unknown job state"):
                queue.transition("job-1", "paused")


class TestDurability:
    def test_torn_tail_truncated_on_replay(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with DurableJobQueue(path) as queue:
            queue.submit(SPEC)
            queue.submit(SPEC)
        intact_size = path.stat().st_size
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"crc":123,"record":{"op":"su')  # torn mid-write
        with DurableJobQueue(path) as queue:
            assert [view.job_id for view in queue.jobs()] == ["job-1", "job-2"]
        assert path.stat().st_size == intact_size  # tail physically removed

    def test_corrupt_line_is_skipped_and_replay_goes_on(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with DurableJobQueue(path) as queue:
            queue.submit(SPEC)
            queue.transition("job-1", RUNNING)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"crc":1,"record":{"op":"state","id":"job-1"}}\n')
        with DurableJobQueue(path) as queue:
            # Everything before the bad CRC survives; the bad frame is
            # counted and skipped ...
            assert queue.get("job-1").state == RUNNING
            assert queue.recovery.corrupt == 1
            queue.transition("job-1", DONE)
        with DurableJobQueue(path) as queue:
            # ... and what was written after it still replays.
            assert queue.get("job-1").state == DONE
            assert queue.recovery.corrupt == 1

    def test_daemon_reports_a_damaged_queue_once_at_startup(self, tmp_path):
        state = ServiceState(tmp_path / "state")
        state.ensure_layout()
        with DurableJobQueue(state.queue_path) as queue:
            queue.submit(SPEC)
            queue.transition("job-1", CANCELLED)
        with state.queue_path.open("a", encoding="utf-8") as handle:
            handle.write('{"crc":1,"record":{"op":"state","id":"job-1"}}\n')
        for expected in (
            [f"{state.queue_path}: journal: 2 job record(s) loaded "
             "(1 corrupt record(s) dropped)"],
            [],  # the first daemon's shutdown compaction left a clean queue
        ):
            daemon = DaemonHarness(state.root).start()
            try:
                assert [job["state"] for job in daemon.client.jobs()] == [CANCELLED]
            finally:
                daemon.stop()
            output = daemon.output().splitlines()
            assert [line for line in output if "journal:" in line] == expected

    def test_older_daemons_job_kind_fails_and_the_queue_serves_on(self, tmp_path):
        """A state directory written by a daemon that still ran ``bench``
        jobs: the queued one ends ``failed`` and the queue keeps serving."""
        state = ServiceState(tmp_path / "state")
        state.ensure_layout()
        with DurableJobQueue(state.queue_path) as queue:
            queue.submit(JobSpec(kind="bench", params={"repeat": 1}))
        daemon = DaemonHarness(state.root).start()
        try:
            figure = daemon.client.submit(SPEC.to_json())
            assert list(daemon.client.watch(figure))[-1]["state"] == DONE
            jobs = {job["job"]: job for job in daemon.client.jobs()}
        finally:
            daemon.stop()
        assert jobs["job-1"]["state"] == FAILED
        assert jobs["job-1"]["detail"] == {"error": "unknown job kind 'bench'"}
        assert jobs[figure]["state"] == DONE

    def test_two_writers_fail_fast(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        first = DurableJobQueue(path)
        first.submit(SPEC)
        second = DurableJobQueue(path)  # reading is fine...
        assert [view.job_id for view in second.jobs()] == ["job-1"]
        with pytest.raises(JournalError, match="already has a writer"):
            second.submit(SPEC)  # ...writing is not
        first.close()
        # Lock released: a new writer may proceed.
        with DurableJobQueue(path) as queue:
            queue.submit(SPEC)


class TestCompaction:
    def test_compact_drops_old_terminal_jobs(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with DurableJobQueue(path) as queue:
            for _ in range(5):
                queue.submit(SPEC)
            for n in range(1, 5):
                queue.transition(f"job-{n}", DONE)
            dropped = queue.compact(keep_terminal=2)
            assert dropped == 2
            assert [view.job_id for view in queue.jobs()] == [
                "job-3",
                "job-4",
                "job-5",
            ]
            # Still writable after the rewrite.
            queue.submit(SPEC)
        with DurableJobQueue(path) as queue:
            assert [view.job_id for view in queue.jobs()] == [
                "job-3",
                "job-4",
                "job-5",
                "job-6",
            ]

    def test_compact_collapses_transition_history(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with DurableJobQueue(path) as queue:
            queue.submit(SPEC)
            for state in (RUNNING, QUEUED, RUNNING, DONE):
                queue.transition("job-1", state)
            before = sum(1 for _ in path.open())
            queue.compact()
            after = sum(1 for _ in path.open())
        assert before == 5
        assert after == 2  # one submit + one final-state record

    def test_compact_keeps_pending_jobs(self, tmp_path):
        with DurableJobQueue(tmp_path / "jobs.jsonl") as queue:
            queue.submit(SPEC)
            queue.transition("job-1", DONE)
            queue.submit(SPEC)
            queue.compact(keep_terminal=0)
            assert [view.job_id for view in queue.jobs()] == ["job-2"]
