"""Update-churn analysis of the control-plane message trace.

The convergence-time metric compresses all post-failure update activity
into a single number.  :class:`UpdateChurn` keeps the structure: who sent
how much, announcements vs withdrawals, the activity timeline, and the
inter-update spacing per (sender, receiver) pair — which makes the MRAI
round structure directly visible (spacings cluster at the jittered timer
values) and quantifies each enhancement's message cost (e.g. Ghost
Flushing's withdrawal flood on high-degree nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.messages import Announcement, Withdrawal, is_update
from ..errors import AnalysisError
from ..net import MessageTrace


@dataclass
class UpdateChurn:
    """Structured view of post-failure update activity."""

    failure_time: float
    send_times: List[float] = field(default_factory=list)
    per_sender: Dict[int, int] = field(default_factory=dict)
    per_pair: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    announcements: int = 0
    withdrawals: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: MessageTrace, failure_time: float) -> "UpdateChurn":
        """Extract all updates sent at or after ``failure_time``."""
        churn = cls(failure_time=failure_time)
        for record in trace:
            if record.time < failure_time or not is_update(record.message):
                continue
            churn.send_times.append(record.time)
            churn.per_sender[record.src] = churn.per_sender.get(record.src, 0) + 1
            churn.per_pair.setdefault((record.src, record.dst), []).append(
                record.time
            )
            if isinstance(record.message, Announcement):
                churn.announcements += 1
            elif isinstance(record.message, Withdrawal):
                churn.withdrawals += 1
        return churn

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_updates(self) -> int:
        return len(self.send_times)

    @property
    def withdrawal_fraction(self) -> float:
        """Withdrawals as a fraction of all updates (0 when silent)."""
        if not self.total_updates:
            return 0.0
        return self.withdrawals / self.total_updates

    def busiest_senders(self, top: int = 5) -> List[Tuple[int, int]]:
        """``(node, updates_sent)``, heaviest first."""
        return sorted(self.per_sender.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    def activity_histogram(self, bin_seconds: float) -> List[int]:
        """Updates per time bin from the failure to the last update.

        The bursty, MRAI-spaced round structure of BGP convergence shows up
        as periodic peaks.
        """
        if bin_seconds <= 0:
            raise AnalysisError(f"bin size must be positive, got {bin_seconds}")
        if not self.send_times:
            return []
        horizon = max(self.send_times) - self.failure_time
        bins = [0] * (int(horizon / bin_seconds) + 1)
        for when in self.send_times:
            bins[int((when - self.failure_time) / bin_seconds)] += 1
        return bins

    def pair_spacings(self) -> List[float]:
        """Gaps between consecutive updates on each (sender, receiver) pair.

        With MRAI rate limiting, announcement spacings cannot fall below the
        minimum jittered timer value; the distribution's lower edge measures
        the effective MRAI in force.
        """
        gaps: List[float] = []
        for times in self.per_pair.values():
            gaps.extend(b - a for a, b in zip(times, times[1:]))
        return gaps

    def min_pair_spacing(self) -> Optional[float]:
        """The smallest observed same-pair gap, or ``None``."""
        gaps = self.pair_spacings()
        return min(gaps) if gaps else None
