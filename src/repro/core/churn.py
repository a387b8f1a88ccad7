"""Update-churn analysis of the control-plane message trace.

The convergence-time metric compresses all post-failure update activity
into a single number.  :class:`UpdateChurn` keeps the structure: who sent
how much, announcements vs withdrawals, and the inter-update spacing per
(sender, receiver) pair — which makes the MRAI round structure directly
visible (spacings cluster at the jittered timer values) and quantifies each enhancement's message cost (e.g. Ghost
Flushing's withdrawal flood on high-degree nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.messages import Announcement, UpdateBatch, Withdrawal, is_update
from ..net import MessageTrace


@dataclass
class UpdateChurn:
    """Structured view of post-failure update activity.

    ``total_updates`` counts messages; ``announcements`` and ``withdrawals``
    count routes, so an :class:`~repro.bgp.messages.UpdateBatch` adds one
    update and each route it carries.
    """

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
            message = record.message
            if isinstance(message, Announcement):
                churn.announcements += 1
            elif isinstance(message, Withdrawal):
                churn.withdrawals += 1
            elif isinstance(message, UpdateBatch):
                churn.announcements += len(message.nlri)
                churn.withdrawals += len(message.withdrawn)
        return churn

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_updates(self) -> int:
        return len(self.send_times)

    @property
    def withdrawal_fraction(self) -> float:
        """Withdrawn routes as a fraction of all routes sent (0 when silent)."""
        routes = self.announcements + self.withdrawals
        if not routes:
            return 0.0
        return self.withdrawals / routes

    def busiest_senders(self, top: int = 5) -> List[Tuple[int, int]]:
        """``(node, updates_sent)``, heaviest first."""
        return sorted(self.per_sender.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

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
