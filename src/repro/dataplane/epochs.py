"""The paper's single-prefix data-plane report.

Under the paper's parameters a packet's whole lifetime (TTL 128 × 2 ms =
256 ms) is short relative to how fast the forwarding state changes (message
processing alone is 100-500 ms), so the forwarding graph is quasi-static over
any single packet's flight.  That observation makes per-packet event
simulation unnecessary: between two FIB changes the graph is *constant*, so
every packet a given source emits in that epoch shares one fate.

:class:`EpochEvaluator` is the N = 1 case of
:class:`~repro.dataplane.traffic_eval.TrafficMatrixEvaluator`: one flow key
per source node, with the prefix string as the destination, replayed by
that evaluator's change-driven loop (a FIB change re-walks only the sources
whose walk read the changed node).  What stays here turns each closed
*constant-fate segment* into §4.2's report fields.  CBR counts are
first-index differences, so a merged segment's count and first/last
departure equal the sums/extremes over the epochs it spans — the report is
bit-equal to walking every source in every epoch (the oracle property in
``tests/property/test_evaluator_properties.py``), and a 110-node × 500 s ×
10 pkt/s workload costs a few thousand graph walks instead of ~70 M hop
events.  The event-driven forwarder in :mod:`repro.dataplane.trajectory`
makes no quasi-static assumption; it is checked against this evaluator on
drawn runs (``tests/oracle/test_dataplane_oracle.py``) and by the
``repro figure ablation_dataplane`` claims row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..topology import DEFAULT_LINK_DELAY
from .fib import FibChangeLog, Prefix
from .packet import DEFAULT_TTL, PacketFate, WalkResult
from .traffic import CbrSource, Flow, TrafficMatrix
from .traffic_eval import TrafficMatrixEvaluator


@dataclass
class DataPlaneReport:
    """Packet-fate totals over an evaluation window (§4.2's metrics).

    ``first_exhaustion``/``last_exhaustion`` are the instants the TTL of the
    first/last looping packet hit zero; "Overall Looping Duration starts when
    the first TTL exhaustion occurs and ends when the last TTL exhaustion
    occurs".
    """

    window: Tuple[float, float]
    packets_sent: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    ttl_exhaustions: int = 0
    first_exhaustion: Optional[float] = None
    last_exhaustion: Optional[float] = None
    delivered_hops: Dict[int, int] = field(default_factory=dict)

    @property
    def looping_ratio(self) -> float:
        """TTL exhaustions over packets sent in the window (§4.2).

        "This metric can be considered as the probability that a packet sent
        during routing convergence encounters looping."
        """
        if self.packets_sent == 0:
            return 0.0
        return self.ttl_exhaustions / self.packets_sent

    @property
    def overall_looping_duration(self) -> float:
        """Last minus first TTL-exhaustion instant (0 when loop-free)."""
        if self.first_exhaustion is None or self.last_exhaustion is None:
            return 0.0
        return self.last_exhaustion - self.first_exhaustion

    @property
    def delivery_ratio(self) -> float:
        """Delivered packets over packets sent."""
        if self.packets_sent == 0:
            return 0.0
        return self.delivered / self.packets_sent

    @property
    def mean_delivered_hops(self) -> float:
        """Average AS-hop count of delivered packets (0 when none).

        During convergence packets take detours (including loops they later
        escape), so this rises above the steady-state shortest-path mean —
        the simulated analogue of the 25-1300 ms extra delay Hengartner et
        al. measured for loop-escaping packets.
        """
        if self.delivered == 0:
            return 0.0
        weighted = sum(hops * count for hops, count in self.delivered_hops.items())
        return weighted / self.delivered

    def max_delivered_hops(self) -> int:
        """Longest delivered trajectory (0 when nothing delivered)."""
        return max(self.delivered_hops, default=0)

    def record_delivery(self, hops: int, count: int = 1) -> None:
        """Account ``count`` delivered packets that took ``hops`` hops."""
        self.delivered += count
        self.delivered_hops[hops] = self.delivered_hops.get(hops, 0) + count

    def _note_exhaustion(self, time: float) -> None:
        if self.first_exhaustion is None or time < self.first_exhaustion:
            self.first_exhaustion = time
        if self.last_exhaustion is None or time > self.last_exhaustion:
            self.last_exhaustion = time


class EpochEvaluator:
    """Computes a :class:`DataPlaneReport` from a FIB change log.

    The traffic-matrix evaluator over one destination does the replay; this
    class owns no forwarding state, only the report.

    Parameters
    ----------
    log:
        The run's :class:`~repro.dataplane.fib.FibChangeLog`.
    prefix:
        Destination prefix under study.
    sources:
        The CBR sources (typically one per non-destination AS).
    ttl:
        Initial TTL (the paper's 128).

    TTL deaths are timestamped with the paper's 2 ms link delay per hop.
    That only affects exhaustion timestamps (by at most ``ttl × 2 ms`` =
    256 ms), not counts.
    """

    def __init__(
        self,
        log: FibChangeLog,
        prefix: Prefix,
        sources: List[CbrSource],
        ttl: int = DEFAULT_TTL,
    ) -> None:
        if not sources:
            raise AnalysisError("need at least one traffic source")
        # Sources sharing a node share one flow key: one walk, one segment.
        # The prefix string is the destination, so it is matched exactly.
        flows = tuple(
            Flow(source.node, prefix, prefix, rate=source.rate, start=source.start)
            for source in sources
        )
        self._flows = TrafficMatrixEvaluator(
            log, TrafficMatrix(flows), ttl, epoch_rows=False
        )
        self._death_offset = ttl * DEFAULT_LINK_DELAY
        # What the last evaluate() did, for telemetry: instants seen (the
        # naive evaluator's epoch count), walks performed, and how many of
        # those re-walked an origin a FIB change had invalidated.
        self.change_instants = 0
        self.walks = 0
        self.walks_invalidated = 0

    def evaluate(self, start: float, end: float) -> DataPlaneReport:
        """Evaluate packet fates for the window ``[start, end)``.

        Exactly the per-epoch sums: CBR counts are first-index differences,
        so they — and the first/last departure of a merged segment —
        telescope across the abutting epochs the segment spans.
        """
        report = DataPlaneReport(window=(start, end))
        flows = self._flows
        for closed, segments in flows.segments(start, end):
            for sources, opened, result in segments:
                for source in sources:
                    count = source.count_in(opened, closed)
                    if count:
                        self._accumulate(report, source, result, count, opened, closed)
        self.change_instants = flows.change_instants
        self.walks = flows.walks
        self.walks_invalidated = flows.walks_invalidated
        return report

    def _accumulate(
        self,
        report: DataPlaneReport,
        source: CbrSource,
        result: WalkResult,
        count: int,
        t0: float,
        t1: float,
    ) -> None:
        report.packets_sent += count
        if result.fate is PacketFate.DELIVERED:
            report.record_delivery(result.hops, count)
            return
        if result.fate is PacketFate.DROPPED_NO_ROUTE:
            report.dropped_no_route += count
            return

        # TTL exhaustion: every one of the source's packets in this epoch
        # dies ttl × DEFAULT_LINK_DELAY after its departure.
        report.ttl_exhaustions += count
        death_offset = self._death_offset
        first_departure = source.departure_time(source.first_index_at_or_after(t0))
        last_departure = source.departure_time(
            source.first_index_at_or_after(t1) - 1
        )
        report._note_exhaustion(first_departure + death_offset)
        report._note_exhaustion(last_departure + death_offset)
