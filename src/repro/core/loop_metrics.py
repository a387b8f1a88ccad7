"""The study's four metrics, combined into one result record.

§4.2 defines: **Overall Looping Duration** (first to last TTL exhaustion),
**Convergence Time** (failure to last update sent), **Number of TTL
Exhaustions**, and **Looping Ratio** (exhaustions / packets sent during
convergence).  :class:`LoopStudyResult` carries all four plus the supporting
detail, and is what every experiment runner returns and every figure driver
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dataplane import DataPlaneReport, TrafficReport
from .convergence import ConvergenceReport
from .loop_detector import LoopInterval


@dataclass(frozen=True)
class LoopStudyResult:
    """Everything one simulation run tells us about transient looping."""

    convergence: ConvergenceReport
    dataplane: DataPlaneReport
    loop_intervals: List[LoopInterval] = field(default_factory=list)
    total_messages: int = 0
    traffic: Optional[TrafficReport] = None

    # ------------------------------------------------------------------
    # The §4.2 metrics
    # ------------------------------------------------------------------

    @property
    def convergence_time(self) -> float:
        return self.convergence.convergence_time

    @property
    def overall_looping_duration(self) -> float:
        return self.dataplane.overall_looping_duration

    @property
    def ttl_exhaustions(self) -> int:
        return self.dataplane.ttl_exhaustions

    @property
    def looping_ratio(self) -> float:
        return self.dataplane.looping_ratio

    # ------------------------------------------------------------------
    # Supporting views
    # ------------------------------------------------------------------

    @property
    def packets_sent(self) -> int:
        return self.dataplane.packets_sent

    @property
    def distinct_loop_count(self) -> int:
        """Number of distinct loop lifetimes observed in the FIB history."""
        return len(self.loop_intervals)

    def summary_row(self) -> Dict[str, float]:
        """The metrics as a flat dict (for tables and aggregation).

        The traffic-weighted keys appear **only** when a traffic matrix was
        evaluated: the row feeds the run digest, so single-prefix runs must
        keep the exact key set (and bytes) they have always had.
        """
        row = {
            "convergence_time": self.convergence_time,
            "looping_duration": self.overall_looping_duration,
            "ttl_exhaustions": float(self.ttl_exhaustions),
            "looping_ratio": self.looping_ratio,
            "packets_sent": float(self.packets_sent),
            "updates_sent": float(self.convergence.update_count),
            "distinct_loops": float(self.distinct_loop_count),
        }
        if self.traffic is not None:
            row["traffic_offered"] = float(self.traffic.offered)
            row["traffic_looped_fraction"] = self.traffic.looped_fraction
            row["traffic_blackholed_fraction"] = self.traffic.blackholed_fraction
            row["traffic_delivered_fraction"] = self.traffic.delivered_fraction
        return row
