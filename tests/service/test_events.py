"""Event builders, the MetricsSnapshot wire format, and the fan-out bus."""

import asyncio

from repro.service.events import (
    EventBus,
    end_event,
    point_event,
    snapshot_event,
    snapshot_from_json,
    snapshot_to_json,
    state_event,
    trial_event,
)
from repro.telemetry import (
    GaugeSnapshot,
    HistogramSnapshot,
    MetricsSnapshot,
)


def sample_snapshot() -> MetricsSnapshot:
    return MetricsSnapshot(
        counters={"bgp.updates": 42, "resilience.retries": 3},
        gauges={"engine.queue_depth": GaugeSnapshot(value=2.0, high_water=7.0)},
        histograms={
            "engine.latency": HistogramSnapshot(
                bounds=(0.1, 1.0),
                bucket_counts=(5, 2, 1),
                count=8,
                total=3.5,
                min=0.01,
                max=2.0,
            )
        },
    )


class TestSnapshotWireFormat:
    def test_round_trip(self):
        snapshot = sample_snapshot()
        assert snapshot_from_json(snapshot_to_json(snapshot)) == snapshot

    def test_empty_round_trip(self):
        empty = MetricsSnapshot()
        restored = snapshot_from_json(snapshot_to_json(empty))
        assert restored == empty and restored.empty

    def test_json_is_serializable(self):
        import json

        json.dumps(snapshot_to_json(sample_snapshot()))


class TestEventBuilders:
    def test_trial_event_carries_optional_fields(self):
        bare = trial_event("job-1", 3.0, 0, True)
        assert "digest" not in bare and "error" not in bare
        rich = trial_event("job-1", 3.0, 0, False, digest="abc", error="boom")
        assert rich["digest"] == "abc" and rich["error"] == "boom"

    def test_every_builder_stamps_job_and_type(self):
        events = [
            state_event("job-1", "running"),
            trial_event("job-1", 3.0, 0, True),
            point_event("job-1", 3.0, {"succeeded": 1}),
            snapshot_event("job-1", MetricsSnapshot()),
            end_event("job-1", "done"),
        ]
        for event in events:
            assert event["job"] == "job-1"
            assert event["event"] in (
                "state", "trial", "point", "snapshot", "end",
            )


class TestWatchRendering:
    def test_failed_trial_line_names_its_error(self, capsys):
        """``repro watch`` prints what the ``trial`` event's ``error`` says."""
        from repro.cli import _stream_job

        class CannedClient:
            def watch(self, job_id):
                yield trial_event(
                    job_id, 3.0, 0, False, error="TrialTimeoutError: too slow"
                )
                yield trial_event(job_id, 3.0, 1, True, digest="ab" * 32)
                yield end_event(job_id, "done")

        assert _stream_job(CannedClient(), "job-1") == 0
        out = capsys.readouterr().out
        assert "trial x=3 seed=0: FAILED (TrialTimeoutError: too slow)" in out
        assert "trial x=3 seed=1: ok\n" in out


class TestEventBus:
    def test_publish_reaches_subscriber(self):
        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            queue = bus.subscribe()
            bus.publish(state_event("job-1", "running"))
            await asyncio.sleep(0)  # let call_soon_threadsafe land
            return queue.get_nowait()

        event = asyncio.run(scenario())
        assert event["state"] == "running"

    def test_late_subscriber_replays_job_history(self):
        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            bus.publish(trial_event("job-1", 3.0, 0, True))
            bus.publish(trial_event("job-2", 4.0, 0, True))
            await asyncio.sleep(0)
            queue = bus.subscribe("job-1")
            return queue.get_nowait(), queue.empty()

        event, drained = asyncio.run(scenario())
        assert event["job"] == "job-1"
        assert drained  # job-2's history was not replayed

    def test_unsubscribed_queue_stops_receiving(self):
        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            queue = bus.subscribe()
            bus.unsubscribe(queue)
            bus.publish(state_event("job-1", "done"))
            await asyncio.sleep(0)
            return queue.empty()

        assert asyncio.run(scenario())

    def test_publish_safe_from_worker_thread(self):
        import threading

        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            queue = bus.subscribe()
            thread = threading.Thread(
                target=bus.publish, args=(state_event("job-1", "running"),)
            )
            thread.start()
            thread.join()
            return await asyncio.wait_for(queue.get(), timeout=5)

        event = asyncio.run(scenario())
        assert event["job"] == "job-1"

    def test_history_is_bounded(self):
        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            bus._history_limit = 10
            for index in range(25):
                bus.publish(trial_event("job-1", float(index), 0, True))
            await asyncio.sleep(0)
            queue = bus.subscribe("job-1")
            return queue.qsize()

        assert asyncio.run(scenario()) == 10

    def test_history_kept_for_unfinished_and_newest_finished_jobs(self):
        from repro.service.queue import KEEP_FINISHED_JOBS

        async def scenario():
            bus = EventBus(asyncio.get_running_loop())
            bus.publish(trial_event("running", 3.0, 0, True))
            for index in range(KEEP_FINISHED_JOBS + 1):
                bus.publish(trial_event(f"job-{index}", 3.0, 0, True))
                bus.publish(end_event(f"job-{index}", "done"))
            await asyncio.sleep(0)
            return {
                job: bus.subscribe(job).qsize()
                for job in ("running", "job-0", "job-1", f"job-{KEEP_FINISHED_JOBS}")
            }

        sizes = asyncio.run(scenario())
        # The oldest finished job's history is gone: a watch of it gets
        # only the daemon's state reply and ``end``.
        assert sizes == {
            "running": 1,
            "job-0": 0,
            "job-1": 2,
            f"job-{KEEP_FINISHED_JOBS}": 2,
        }
