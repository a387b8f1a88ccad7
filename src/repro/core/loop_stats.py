"""Statistics over individual loops — the paper's "next steps".

§6: "As our next steps, we plan to examine route change traces to measure
the statistics of individual loops such as the loop size and duration."
This module does that measurement over the FIB-history loop intervals the
library already extracts: size and lifetime distributions and formation
times relative to the failure, aggregable across runs for sweep-level
statistics.

The numbers connect to the measurement literature the paper cites:
Hengartner et al. observed on a real backbone that more than half of all
loops involved only two nodes, and that loop lifetimes are heavy-tailed;
:class:`LoopStatistics` makes the same quantities available for simulated
convergence events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import AnalysisError
from ..util.stats import Summary, summarize
from .loop_detector import LoopInterval


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation; raises on empty."""
    if not values:
        raise AnalysisError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise AnalysisError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


@dataclass
class LoopStatistics:
    """Aggregated statistics over a collection of loop lifetimes.

    Build with :meth:`from_intervals` for one run, or :meth:`merge` several
    runs' statistics into sweep-level aggregates.  ``failure_time`` anchors
    formation delays; when merging runs it is carried per interval, so pass
    intervals already shifted (or use per-run instances).
    """

    intervals: List[LoopInterval] = field(default_factory=list)
    formation_delays: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_intervals(
        cls,
        intervals: Sequence[LoopInterval],
        failure_time: float = 0.0,
    ) -> "LoopStatistics":
        """Statistics for one run's loop timeline."""
        return cls(
            intervals=list(intervals),
            formation_delays=[i.start - failure_time for i in intervals],
        )

    @classmethod
    def merge(cls, parts: Sequence["LoopStatistics"]) -> "LoopStatistics":
        """Pool several runs' statistics (e.g. across seeds)."""
        merged = cls()
        for part in parts:
            merged.intervals.extend(part.intervals)
            merged.formation_delays.extend(part.formation_delays)
        return merged

    # ------------------------------------------------------------------
    # Counts and distributions
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of loop lifetimes observed."""
        return len(self.intervals)

    def sizes(self) -> List[int]:
        return [interval.size for interval in self.intervals]

    def durations(self) -> List[float]:
        return [interval.duration for interval in self.intervals]

    def size_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for interval in self.intervals:
            histogram[interval.size] = histogram.get(interval.size, 0) + 1
        return histogram

    def two_node_share(self) -> float:
        """Fraction of loop lifetimes with exactly two members.

        Hengartner et al. report > 0.5 on a measured backbone; clique-heavy
        convergence events typically land in the same regime.
        """
        if not self.intervals:
            return 0.0
        return sum(1 for i in self.intervals if i.size == 2) / len(self.intervals)

    def duration_summary(self) -> Summary:
        """Mean/stdev/min/max of loop lifetimes."""
        return summarize(self.durations())

    def duration_percentile(self, q: float) -> float:
        return percentile(self.durations(), q)

    def total_loop_seconds(self) -> float:
        """Sum of all loop lifetimes (loop-seconds of exposure)."""
        return sum(self.durations())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A compact multi-line human-readable summary."""
        if not self.intervals:
            return "no loops observed"
        duration = self.duration_summary()
        lines = [
            f"loop lifetimes observed : {self.count}",
            f"two-node share          : {self.two_node_share():.0%}",
            f"lifetime mean/max       : {duration.mean:.2f}s / {duration.maximum:.2f}s",
            f"lifetime p50/p90        : {self.duration_percentile(50):.2f}s / "
            f"{self.duration_percentile(90):.2f}s",
            f"total loop-seconds      : {self.total_loop_seconds():.2f}s",
        ]
        sizes = ", ".join(
            f"{size}-node x{count}" for size, count in sorted(self.size_histogram().items())
        )
        lines.append(f"sizes                   : {sizes}")
        return "\n".join(lines)
