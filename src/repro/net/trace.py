"""Control-plane message tracing.

Every message handed to the network layer is recorded as a
:class:`TraceRecord`.  The trace is how the study's headline metric is
measured: *convergence time ends when the last BGP update message is sent*.
Keeping the trace in the network layer (rather than inside each protocol)
means all protocol variants are measured identically.

Per-kind tallies are maintained incrementally on record: figure drivers
and the telemetry layer ask "how many Announcements?" once per trial per
kind, and rescanning a hundred-thousand-record trace for each answer was
a measurable fraction of sweep time.  :meth:`MessageTrace.count_kind`
and :meth:`MessageTrace.kind_counts` are O(1)/O(kinds); the predicate
forms keep their general (linear) behavior for arbitrary filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One control-plane message send."""

    time: float
    src: int
    dst: int
    message: Any

    @property
    def kind(self) -> str:
        """The message's class name, e.g. ``Announcement`` or ``Withdrawal``."""
        return type(self.message).__name__


Predicate = Callable[[TraceRecord], bool]


class MessageTrace:
    """An append-only log of message sends with simple query helpers."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._kind_counts: Dict[str, int] = {}

    def record(self, time: float, src: int, dst: int, message: Any) -> None:
        """Append one send; called by the network layer only."""
        self._records.append(TraceRecord(time, src, dst, message))
        kind = type(message).__name__
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(self, predicate: Optional[Predicate] = None) -> List[TraceRecord]:
        """All records, optionally filtered."""
        if predicate is None:
            return list(self._records)
        return [r for r in self._records if predicate(r)]

    def count(
        self, predicate: Optional[Predicate] = None, kind: Optional[str] = None
    ) -> int:
        """Number of records matching ``predicate`` (all when ``None``).

        ``kind`` answers the common "how many Announcements?" question from
        the incremental tally in O(1) instead of scanning; it is mutually
        exclusive with ``predicate``.
        """
        if kind is not None:
            if predicate is not None:
                raise ValueError("pass either predicate or kind, not both")
            return self._kind_counts.get(kind, 0)
        if predicate is None:
            return len(self._records)
        return sum(1 for r in self._records if predicate(r))

    def count_kind(self, kind: str) -> int:
        """Messages of class-name ``kind`` recorded so far (O(1))."""
        return self._kind_counts.get(kind, 0)

    def kind_counts(self) -> Dict[str, int]:
        """Per-kind tallies, sorted by kind name (copy).

        This is the view the telemetry layer lifts into
        ``trace.messages.<Kind>`` counters after a run.
        """
        return {kind: self._kind_counts[kind] for kind in sorted(self._kind_counts)}

    def last_time(self, predicate: Optional[Predicate] = None) -> Optional[float]:
        """Timestamp of the last matching record, or ``None``.

        This is the measurement point for convergence time: with a predicate
        selecting BGP updates sent after the failure, the result is "the time
        the last update message is sent".
        """
        for record in reversed(self._records):
            if predicate is None or predicate(record):
                return record.time
        return None

    def since(self, time: float) -> List[TraceRecord]:
        """Records with timestamp >= ``time``."""
        return [r for r in self._records if r.time >= time]

    def clear(self) -> None:
        """Drop all records and tallies (e.g. after warm-up convergence)."""
        self._records.clear()
        self._kind_counts.clear()
