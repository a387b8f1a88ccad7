"""Epoch-based data-plane evaluation.

Under the paper's parameters a packet's whole lifetime (TTL 128 × 2 ms =
256 ms) is short relative to how fast the forwarding state changes (message
processing alone is 100-500 ms), so the forwarding graph is quasi-static over
any single packet's flight.  That observation makes per-packet event
simulation unnecessary: between two FIB changes the graph is *constant*, so
every packet a given source emits in that epoch shares one fate.

:class:`EpochEvaluator` goes one step further and works per FIB *change*: a
:class:`~repro.dataplane.packet.ForwardingTracker` memoizes each source's
walk with the nodes it read, a change re-walks only the sources whose walk
read the changed node, and every other source keeps its open *constant-fate
segment*, multiplied by its packet count once, when it closes.  CBR counts
are first-index differences, so a merged segment's count and first/last
departure equal the sums/extremes over the epochs it spans — the report is
bit-equal to walking every source in every epoch (the oracle property in
``tests/property/test_evaluator_properties.py``), and a 110-node × 500 s ×
10 pkt/s workload costs a few thousand graph walks instead of ~70 M hop
events.  The event-driven forwarder in :mod:`repro.dataplane.trajectory`
computes the same quantities exactly and is cross-validated against this
evaluator in the test suite and the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..topology import DEFAULT_LINK_DELAY
from .fib import FibChangeLog, Prefix
from .packet import DEFAULT_TTL, ForwardingTracker, PacketFate, WalkResult
from .traffic import CbrSource


@dataclass
class LoopSighting:
    """Aggregate statistics for one distinct forwarding cycle."""

    cycle: Tuple[int, ...]
    packets_lost: int = 0
    first_seen: float = float("inf")
    last_seen: float = float("-inf")

    @property
    def size(self) -> int:
        """Number of nodes in the cycle."""
        return len(self.cycle)

    @property
    def observed_duration(self) -> float:
        """Span between first and last packet lost to this cycle."""
        if self.packets_lost == 0:
            return 0.0
        return self.last_seen - self.first_seen


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
    loops: Dict[Tuple[int, ...], LoopSighting] = field(default_factory=dict)
    per_source_exhaustions: Dict[int, int] = field(default_factory=dict)
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

    def distinct_loops(self) -> List[LoopSighting]:
        """Observed loops, largest packet toll first."""
        return sorted(
            self.loops.values(), key=lambda s: (-s.packets_lost, s.cycle)
        )

    def _note_exhaustion(self, time: float) -> None:
        if self.first_exhaustion is None or time < self.first_exhaustion:
            self.first_exhaustion = time
        if self.last_exhaustion is None or time > self.last_exhaustion:
            self.last_exhaustion = time


class EpochEvaluator:
    """Computes a :class:`DataPlaneReport` from a FIB change log.

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
    hop_delay:
        Per-hop forwarding latency used to timestamp TTL deaths; the
        paper's 2 ms link delay.  Only affects exhaustion timestamps (by at
        most ``ttl × hop_delay`` = 256 ms), not counts.
    """

    def __init__(
        self,
        log: FibChangeLog,
        prefix: Prefix,
        sources: List[CbrSource],
        ttl: int = DEFAULT_TTL,
        hop_delay: float = DEFAULT_LINK_DELAY,
    ) -> None:
        if not sources:
            raise AnalysisError("need at least one traffic source")
        self._log = log
        self._prefix = prefix
        self._ttl = ttl
        self._hop_delay = hop_delay
        # Sources sharing a node share every fate: one walk, one segment.
        self._by_node: Dict[int, List[CbrSource]] = {}
        for source in sources:
            self._by_node.setdefault(source.node, []).append(source)
        # What the last evaluate() did, for telemetry: instants seen (the
        # naive evaluator's epoch count), walks performed, and how many of
        # those re-walked an origin a FIB change had invalidated.
        self.change_instants = 0
        self.walks = 0
        self.walks_invalidated = 0

    def evaluate(self, start: float, end: float) -> DataPlaneReport:
        """Evaluate packet fates for the window ``[start, end)``."""
        report = DataPlaneReport(window=(start, end))
        tracker = ForwardingTracker(self._ttl)
        # origin -> (opened, fate): its open constant-fate segment.
        segments: Dict[int, Tuple[float, WalkResult]] = {}
        self.change_instants = self.walks_invalidated = 0
        for t0, _t1, batch in self._log.instants(start, end, self._prefix):
            self.change_instants += 1
            # Apply the whole instant before re-walking anything; an origin
            # leaves the memo on its first invalidation, so it is listed once.
            stale = [
                origin
                for change in batch
                for origin in tracker.set_next_hop(change.node, change.next_hop)
            ]
            self.walks_invalidated += len(stale)
            if not segments:
                stale = list(self._by_node)  # the classification at ``start``
            for origin in stale:
                if origin in segments:
                    self._close(report, origin, *segments[origin], t0)
                segments[origin] = (t0, tracker.walk(origin))
        for origin, (opened, result) in segments.items():
            self._close(report, origin, opened, result, end)
        self.walks = tracker.walks
        return report

    def _close(
        self,
        report: DataPlaneReport,
        origin: int,
        opened: float,
        result: WalkResult,
        closed: float,
    ) -> None:
        """Account ``[opened, closed)``, over which ``origin``'s fate held.

        Exactly the per-epoch sums: CBR counts are first-index differences,
        so they — and the first/last departure of a merged segment —
        telescope across the abutting epochs the segment spans.
        """
        for source in self._by_node[origin]:
            count = source.count_in(opened, closed)
            if count:
                self._accumulate(report, source, result, count, opened, closed)

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
        # dies ttl × hop_delay after its departure.
        report.ttl_exhaustions += count
        report.per_source_exhaustions[source.node] = (
            report.per_source_exhaustions.get(source.node, 0) + count
        )
        death_offset = self._ttl * self._hop_delay
        first_departure = source.departure_time(source.first_index_at_or_after(t0))
        last_departure = source.departure_time(
            source.first_index_at_or_after(t1) - 1
        )
        report._note_exhaustion(first_departure + death_offset)
        report._note_exhaustion(last_departure + death_offset)

        if result.loop is not None:
            sighting = report.loops.get(result.loop)
            if sighting is None:
                sighting = LoopSighting(cycle=result.loop)
                report.loops[result.loop] = sighting
            sighting.packets_lost += count
            sighting.first_seen = min(sighting.first_seen, first_departure + death_offset)
            sighting.last_seen = max(sighting.last_seen, last_departure + death_offset)
