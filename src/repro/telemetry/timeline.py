"""Event timelines: instants and spans keyed by *simulation* time.

A :class:`Timeline` is an append-only log of named instants (an MRAI
timer fired, a FIB entry changed) and spans (a loop's lifetime, a run
phase).  Everything is stamped with simulation seconds — never the wall
clock — so recording a timeline cannot perturb determinism and two runs
of one seed produce byte-identical exports.  Wall-clock profiling lives
on the harness side of the boundary, in
:mod:`repro.telemetry.profiler`.

Two export formats:

* **JSONL** (:meth:`Timeline.to_jsonl`) — one record per line, trivially
  greppable and diffable;
* **Chrome trace-event JSON** (:meth:`Timeline.to_chrome_trace`) — the
  ``{"traceEvents": [...]}`` format loadable in Perfetto /
  ``chrome://tracing``.  Simulation seconds map to trace microseconds,
  tracks map to thread ids (one per node, plus a global track), and
  spans become complete ``"X"`` events.

:func:`validate_chrome_trace` checks an exported payload against the
subset of the trace-event schema the simulator emits; CI runs it on a
traced 5-clique Tdown so the export format cannot rot silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import TelemetryError

#: Track id used for events that belong to no particular node.
GLOBAL_TRACK = -1

#: Trace-event phase codes this module emits.
_PHASE_COMPLETE = "X"
_PHASE_INSTANT = "i"
_PHASE_METADATA = "M"


@dataclass(frozen=True)
class TimelineRecord:
    """One timeline entry: an instant (``duration is None``) or a span.

    ``track`` groups records into horizontal lanes (node ids; the
    engine/harness uses :data:`GLOBAL_TRACK`).  ``args`` is a sorted
    tuple of key/value pairs so records stay hashable and picklable.
    """

    time: float
    name: str
    category: str
    track: int = GLOBAL_TRACK
    duration: Optional[float] = None

    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def end(self) -> float:
        """Span end (= ``time`` for instants)."""
        return self.time + (self.duration or 0.0)


class Timeline:
    """An append-only log of simulation-time instants and spans."""

    def __init__(self) -> None:
        self._records: List[TimelineRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TimelineRecord]:
        return iter(self._records)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def instant(
        self,
        time: float,
        name: str,
        category: str,
        track: int = GLOBAL_TRACK,
        **args: Any,
    ) -> None:
        """Record a point event at simulation time ``time``."""
        self._records.append(
            TimelineRecord(
                time=time,
                name=name,
                category=category,
                track=track,
                args=tuple(sorted(args.items())),
            )
        )

    def span(
        self,
        start: float,
        end: float,
        name: str,
        category: str,
        track: int = GLOBAL_TRACK,
        **args: Any,
    ) -> None:
        """Record an interval ``[start, end]`` of simulation time."""
        if end < start:
            raise TelemetryError(
                f"span {name!r} ends at {end} before it starts at {start}"
            )
        self._records.append(
            TimelineRecord(
                time=start,
                name=name,
                category=category,
                track=track,
                duration=end - start,
                args=tuple(sorted(args.items())),
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def records(self, category: Optional[str] = None) -> List[TimelineRecord]:
        """All records (in recording order), optionally one category's."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def categories(self) -> List[str]:
        """Distinct categories present, sorted."""
        return sorted({r.category for r in self._records})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per record, chronology preserved."""
        lines = []
        for record in self._records:
            payload: Dict[str, Any] = {
                "time": record.time,
                "name": record.name,
                "category": record.category,
                "track": record.track,
            }
            if record.duration is not None:
                payload["duration"] = record.duration
            if record.args:
                payload["args"] = dict(record.args)
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self, process_name: str = "repro-sim") -> Dict[str, Any]:
        """The timeline as a Chrome trace-event payload (Perfetto-loadable).

        Simulation seconds become trace microseconds.  Each track becomes
        one thread of a single synthetic process; metadata events name the
        process and threads so the viewer shows ``node 3`` instead of a
        bare tid.
        """
        events: List[Dict[str, Any]] = [
            {
                "ph": _PHASE_METADATA,
                "pid": 0,
                "tid": 0,
                "name": "process_name",
                "args": {"name": process_name},
            }
        ]
        for track in sorted({r.track for r in self._records}):
            label = "sim" if track == GLOBAL_TRACK else f"node {track}"
            events.append(
                {
                    "ph": _PHASE_METADATA,
                    "pid": 0,
                    "tid": self._tid(track),
                    "name": "thread_name",
                    "args": {"name": label},
                }
            )
        for record in self._records:
            event: Dict[str, Any] = {
                "name": record.name,
                "cat": record.category,
                "pid": 0,
                "tid": self._tid(record.track),
                "ts": record.time * 1e6,
                "args": dict(record.args),
            }
            if record.duration is not None:
                event["ph"] = _PHASE_COMPLETE
                event["dur"] = record.duration * 1e6
            else:
                event["ph"] = _PHASE_INSTANT
                event["s"] = "t"
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @staticmethod
    def _tid(track: int) -> int:
        # Thread ids must be non-negative; the global track gets tid 0 and
        # node tracks shift up by one.
        return 0 if track == GLOBAL_TRACK else track + 1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome_trace(self, path: str, process_name: str = "repro-sim") -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(process_name), handle, sort_keys=True)
            handle.write("\n")


def validate_chrome_trace(payload: Any) -> int:
    """Validate a Chrome trace-event payload; returns the event count.

    Checks the subset of the trace-event format this package emits:
    a top-level ``traceEvents`` list whose members carry the required
    keys with the required types per phase.  Raises
    :class:`~repro.errors.TelemetryError` on the first violation — this
    is the CI schema gate for exported traces.
    """
    if not isinstance(payload, dict):
        raise TelemetryError(f"trace payload must be an object, got {type(payload)}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace payload is missing the 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TelemetryError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in (_PHASE_COMPLETE, _PHASE_INSTANT, _PHASE_METADATA):
            raise TelemetryError(f"{where} has unknown phase {phase!r}")
        for key, types in (("name", str), ("pid", int), ("tid", int)):
            if not isinstance(event.get(key), types):
                raise TelemetryError(f"{where} field {key!r} missing or mistyped")
        if event["tid"] < 0:
            raise TelemetryError(f"{where} has negative tid {event['tid']}")
        if phase == _PHASE_METADATA:
            if not isinstance(event.get("args"), dict):
                raise TelemetryError(f"{where} metadata event needs args")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise TelemetryError(f"{where} field 'ts' missing or mistyped")
        if event["ts"] < 0:
            raise TelemetryError(f"{where} has negative timestamp {event['ts']}")
        if not isinstance(event.get("cat"), str):
            raise TelemetryError(f"{where} field 'cat' missing or mistyped")
        if phase == _PHASE_COMPLETE:
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise TelemetryError(f"{where} complete event needs dur >= 0")
        if phase == _PHASE_INSTANT and event.get("s") not in ("t", "p", "g"):
            raise TelemetryError(f"{where} instant event has bad scope")
    return len(events)
