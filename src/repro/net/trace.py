"""Control-plane message tracing.

Every message handed to the network layer is recorded as a
:class:`TraceRecord`.  The trace is how the study's headline metric is
measured: *convergence time ends when the last BGP update message is sent*.
Keeping the trace in the network layer (rather than inside each protocol)
means all protocol variants are measured identically.  Per-kind message
counts are the telemetry probe's (``net.messages_sent.<Kind>``); the trace
keeps the records and answers predicate queries over them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
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

    def record(self, time: float, src: int, dst: int, message: Any) -> None:
        """Append one send; called by the network layer only."""
        self._records.append(TraceRecord(time, src, dst, message))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(self, predicate: Optional[Predicate] = None) -> List[TraceRecord]:
        """All records, optionally filtered."""
        if predicate is None:
            return list(self._records)
        return [r for r in self._records if predicate(r)]

    def count(self, predicate: Optional[Predicate] = None) -> int:
        """Number of records matching ``predicate`` (all when ``None``)."""
        if predicate is None:
            return len(self._records)
        return sum(1 for r in self._records if predicate(r))

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
        """Drop all records (e.g. after warm-up convergence)."""
        self._records.clear()
