"""Streaming events: what ``repro watch`` sees while a job runs.

Events are plain dicts (they go straight onto the wire as JSON lines).
Every event carries ``event`` (its type) and ``job`` (the job id):

``state``
    Job lifecycle transition (queued → running → done/failed/cancelled).
``trial``
    One ``(x, seed)`` trial finished and is in the job's journal — ok
    (with its ``digest`` when fingerprinting is on) or failed (with
    ``error``, the exception class and message).  Emitted per
    completion, so a watcher sees progress trial-by-trial, not just at
    the end.
``point``
    One sweep x-value completed with its aggregated loop statistics.
``snapshot``
    A :class:`~repro.telemetry.MetricsSnapshot` aggregation — the
    rolling union of every finished trial's telemetry.
``log``
    Free-form daemon commentary (resume notices, bench cycle results).
``end``
    Stream terminator; the daemon closes the watch connection after it.

The :class:`EventBus` fans events out to any number of subscribers.
Publishing is thread-safe (jobs execute in a worker thread; subscribers
live on the asyncio loop) via ``loop.call_soon_threadsafe``.  Slow
subscribers never block the executor: queues are unbounded, and a
subscriber that disconnects simply stops draining its queue, which the
daemon then discards.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..telemetry import GaugeSnapshot, HistogramSnapshot, MetricsSnapshot

#: Event type names, for validation and documentation.
EVENT_TYPES = ("state", "trial", "point", "snapshot", "log", "end")


# -- event builders -----------------------------------------------------


def state_event(job_id: str, state: str, detail: Optional[Dict] = None) -> Dict:
    event = {"event": "state", "job": job_id, "state": state}
    if detail:
        event["detail"] = dict(detail)
    return event


def trial_event(
    job_id: str,
    x: float,
    seed: int,
    ok: bool,
    digest: str = "",
    error: str = "",
) -> Dict:
    event = {"event": "trial", "job": job_id, "x": x, "seed": seed, "ok": ok}
    if digest:
        event["digest"] = digest
    if error:
        event["error"] = error
    return event


def point_event(job_id: str, x: float, stats: Dict) -> Dict:
    return {"event": "point", "job": job_id, "x": x, "stats": dict(stats)}


def snapshot_event(job_id: str, snapshot: MetricsSnapshot) -> Dict:
    return {
        "event": "snapshot",
        "job": job_id,
        "metrics": snapshot_to_json(snapshot),
    }


def log_event(job_id: str, message: str) -> Dict:
    return {"event": "log", "job": job_id, "message": message}


def end_event(job_id: str, state: str) -> Dict:
    return {"event": "end", "job": job_id, "state": state}


# -- MetricsSnapshot wire format ----------------------------------------


def snapshot_to_json(snapshot: MetricsSnapshot) -> Dict:
    """Flatten a :class:`MetricsSnapshot` to JSON-able data."""
    return {
        "counters": dict(snapshot.counters),
        "gauges": {
            name: {"value": g.value, "high_water": g.high_water}
            for name, g in snapshot.gauges.items()
        },
        "histograms": {
            name: {
                "bounds": list(h.bounds),
                "bucket_counts": list(h.bucket_counts),
                "count": h.count,
                "total": h.total,
                "min": h.min,
                "max": h.max,
            }
            for name, h in snapshot.histograms.items()
        },
    }


def snapshot_from_json(data: Dict) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_json`."""
    return MetricsSnapshot(
        counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
        gauges={
            str(name): GaugeSnapshot(
                value=float(g["value"]), high_water=float(g["high_water"])
            )
            for name, g in data.get("gauges", {}).items()
        },
        histograms={
            str(name): HistogramSnapshot(
                bounds=tuple(h["bounds"]),
                bucket_counts=tuple(h["bucket_counts"]),
                count=int(h["count"]),
                total=float(h["total"]),
                min=h["min"],
                max=h["max"],
            )
            for name, h in data.get("histograms", {}).items()
        },
    )


# -- fan-out ------------------------------------------------------------


class EventBus:
    """Fan events out from the executor thread to asyncio subscribers."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        # A list, not a set: delivery order follows subscription order.
        self._subscribers: List[asyncio.Queue] = []
        #: Recent events per job so a late subscriber can catch up.
        self._history: Dict[str, List[Dict]] = {}
        self._history_limit = 1000

    def subscribe(self, job_id: Optional[str] = None) -> asyncio.Queue:
        """Register a subscriber queue; replays the job's history first."""
        queue: asyncio.Queue = asyncio.Queue()
        if job_id is not None:
            for event in self._history.get(job_id, []):
                queue.put_nowait(event)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def publish(self, event: Dict) -> None:
        """Deliver one event to all subscribers.  Safe from any thread."""
        self._loop.call_soon_threadsafe(self._publish_on_loop, event)

    def _publish_on_loop(self, event: Dict) -> None:
        job_id = event.get("job")
        if job_id is not None:
            history = self._history.setdefault(job_id, [])
            history.append(event)
            if len(history) > self._history_limit:
                del history[: len(history) - self._history_limit]
        for queue in list(self._subscribers):
            queue.put_nowait(event)
