"""Convergence-time measurement.

"Convergence Time starts when the link failure happens, and ends when the
last BGP update message is sent" (§4.2).  The measurement is taken from the
network-level :class:`~repro.net.trace.MessageTrace`, so every protocol
variant is measured by identical machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bgp.messages import is_update
from ..net import MessageTrace, TraceRecord


@dataclass(frozen=True)
class ConvergenceReport:
    """Timing and volume of the post-failure update activity."""

    failure_time: float
    first_update_time: Optional[float]
    last_update_time: Optional[float]
    update_count: int
    announcement_count: int
    withdrawal_count: int

    @property
    def convergence_time(self) -> float:
        """Seconds from the failure to the last update sent (0 if silent)."""
        if self.last_update_time is None:
            return 0.0
        return self.last_update_time - self.failure_time

    @property
    def convergence_end(self) -> float:
        """Absolute time convergence completed (= failure time if silent)."""
        if self.last_update_time is None:
            return self.failure_time
        return self.last_update_time


def measure_convergence(trace: MessageTrace, failure_time: float) -> ConvergenceReport:
    """Build a :class:`ConvergenceReport` from the run's message trace.

    Only update messages (announcements and withdrawals) sent at or after
    ``failure_time`` count; the warm-up convergence that established initial
    routes is excluded.
    """

    def after_failure(record: TraceRecord) -> bool:
        return record.time >= failure_time and is_update(record.message)

    relevant = trace.records(after_failure)
    announcements = sum(1 for r in relevant if r.kind == "Announcement")
    return ConvergenceReport(
        failure_time=failure_time,
        first_update_time=relevant[0].time if relevant else None,
        last_update_time=relevant[-1].time if relevant else None,
        update_count=len(relevant),
        announcement_count=announcements,
        withdrawal_count=len(relevant) - announcements,
    )
