"""Traffic-weighted data-plane evaluation over prefix populations.

The paper's ``looping_ratio`` treats every packet equally and one destination
at a time.  Production damage is weighted: a loop that catches the heaviest
flows of a 256-prefix table hurts more than one catching a trickle.
:class:`TrafficMatrixEvaluator` replays the run's FIB log across *all*
prefixes, resolves every flow by longest prefix match, and reports the
**fraction of offered traffic** that was looped / blackholed / delivered —
the ROADMAP's millions-of-users metric.

Work is per FIB *change*, not per epoch.  Each destination address owns one
:class:`~repro.dataplane.packet.ForwardingTracker` holding every node's
resolved next hop for it, and one *covering chain*: every logged prefix that
contains it, most specific first.

* The destination set is static, so a prefix joins the chains once, the
  first time it appears: the addresses a structured prefix covers are one
  contiguous run of the sorted address list (two bisections), and an opaque
  prefix covers only the destination it names.
* A change to prefix ``p`` at node ``n`` can move only the destinations
  ``p`` covers, and only ``n``'s hop for them — so it costs one resolution
  per (node, covered destination): the first chain entry ``n``'s table
  (a plain prefix → next hop dict) holds, which is the longest match.
* The tracker hands back exactly the flows whose memoized walk read ``n``;
  only those close their constant-fate segment and are walked again.
* CBR counting is a first-index difference, so a flow's count over a merged
  segment equals the sum of its per-epoch counts exactly — accounting once
  per segment is bit-identical to accounting once per epoch.

All accounting is integer packet counts, so results are identical across
platforms and process counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import AnalysisError
from ..prefixes import parse_prefix
from .fib import FibChangeLog, Prefix
from .packet import DEFAULT_TTL, ForwardingTracker, PacketFate
from .traffic import CbrSource, TrafficMatrix

_FATE_INDEX = {
    PacketFate.DELIVERED: 0,
    PacketFate.DROPPED_NO_ROUTE: 1,
    PacketFate.TTL_EXPIRED: 2,
}
"""Tally slots: delivered, blackholed, looped."""

Destination = Union[int, str]
FlowKey = Tuple[Destination, int]
"""``(destination, source node)``: flows sharing it share every fate."""


@dataclass(frozen=True, slots=True)
class EpochTraffic:
    """Traffic accounting for one multi-prefix epoch."""

    start: float
    end: float
    offered: int
    delivered: int
    blackholed: int
    looped: int

    @property
    def looped_fraction(self) -> float:
        return self.looped / self.offered if self.offered else 0.0

    @property
    def blackholed_fraction(self) -> float:
        return self.blackholed / self.offered if self.offered else 0.0


@dataclass
class TrafficReport:
    """Offered-traffic fate totals over an evaluation window.

    All counts are integer packets (CBR arithmetic), so every derived
    fraction is an exact ratio of integers — digest-safe.
    """

    window: Tuple[float, float]
    flows: int = 0
    prefixes: int = 0
    offered: int = 0
    delivered: int = 0
    blackholed: int = 0
    looped: int = 0
    epoch_rows: List[EpochTraffic] = field(default_factory=list)

    @property
    def looped_fraction(self) -> float:
        """Fraction of offered traffic that died looping (traffic-weighted
        analogue of the paper's looping ratio)."""
        return self.looped / self.offered if self.offered else 0.0

    @property
    def blackholed_fraction(self) -> float:
        """Fraction of offered traffic dropped for lack of a route."""
        return self.blackholed / self.offered if self.offered else 0.0

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def lost_fraction(self) -> float:
        """Looped plus blackholed, as a fraction of offered traffic."""
        return (self.looped + self.blackholed) / self.offered if self.offered else 0.0

    def worst_epoch(self) -> Optional[EpochTraffic]:
        """The epoch with the highest looped fraction (ties: earliest)."""
        worst: Optional[EpochTraffic] = None
        for row in self.epoch_rows:
            if worst is None or row.looped_fraction > worst.looped_fraction:
                worst = row
        return worst


class TrafficMatrixEvaluator:
    """Computes a :class:`TrafficReport` from a FIB log and a traffic matrix.

    The destinations are fixed here, so no LPM index is needed: each one
    resolves through its covering chain (built once per logged prefix and
    kept across :meth:`evaluate` calls) against per-node prefix → next-hop
    dicts that each evaluation rebuilds from the log.

    Parameters
    ----------
    log:
        The run's :class:`~repro.dataplane.fib.FibChangeLog` (all prefixes).
    matrix:
        The offered demand.
    ttl:
        Initial TTL.
    epoch_rows:
        ``True`` (default) collects one :class:`EpochTraffic` row per
        interval between instants at which a changed prefix covers some
        destination, which costs one whole-matrix accounting pass per row —
        O(rows × flows), quadratic in population at routing-table scale
        since both factors grow with the prefix count.  ``False`` accounts
        each flow only when *its* fate is invalidated (and once at the
        end): the report's totals (and every derived fraction) are
        bit-identical — per-flow CBR counts telescope exactly across any
        partition of the window — but ``report.epoch_rows`` stays empty.
        Use for 10k+ prefix populations where per-epoch detail is not worth
        O(P²).
    """

    def __init__(
        self,
        log: FibChangeLog,
        matrix: TrafficMatrix,
        ttl: int = DEFAULT_TTL,
        epoch_rows: bool = True,
    ) -> None:
        if not matrix.flows:
            raise AnalysisError("traffic matrix has no flows")
        self._log = log
        self._matrix = matrix
        self._ttl = ttl
        self._epoch_rows = bool(epoch_rows)
        # One arrival process per flow, grouped by what decides its fate.
        self._streams: Dict[FlowKey, List[CbrSource]] = {}
        for flow in matrix.flows:
            self._streams.setdefault((flow.destination, flow.source), []).append(
                flow.as_cbr()
            )
        # Every destination's covering chain, grown by _covered_by; the
        # integer destinations are also kept sorted, so the ones a
        # structured prefix covers are a single bisected run.
        self._chains: Dict[Destination, List[Prefix]] = {
            dest: [] for dest, _ in self._streams
        }
        self._addresses = sorted(d for d in self._chains if isinstance(d, int))
        self._lengths: Dict[Prefix, int] = {}
        self._covered: Dict[Prefix, Tuple[Destination, ...]] = {}
        # What the last evaluate() did, for telemetry.
        self.change_instants = 0
        self.walks = 0
        self.walks_invalidated = 0
        self.lpm_resolves = 0

    def _covered_by(self, prefix: Prefix) -> Tuple[Destination, ...]:
        """The destinations whose LPM resolution a change to ``prefix`` can
        move: exact, since a resolution only ever returns a containing
        prefix.  The first call also enters ``prefix`` into their chains."""
        hit = self._covered.get(prefix)
        if hit is None:
            spec = parse_prefix(prefix)
            if spec is None:
                hit = (prefix,) if prefix in self._chains else ()
                for dest in hit:
                    self._chains[dest].append(prefix)
            else:
                addresses = self._addresses
                low = bisect_left(addresses, spec.value)
                high = bisect_left(addresses, spec.value + spec.size, low)
                hit = tuple(addresses[low:high])
                self._lengths[prefix] = spec.length
                for dest in hit:
                    chain = self._chains[dest]
                    chain.append(prefix)
                    chain.sort(key=self._lengths.__getitem__, reverse=True)
            self._covered[prefix] = hit
        return hit

    def evaluate(self, start: float, end: float) -> TrafficReport:
        """Evaluate flow fates over ``[start, end)``."""
        report = TrafficReport(
            window=(start, end),
            flows=len(self._matrix.flows),
            prefixes=len(self._matrix.prefixes()),
        )
        chains = self._chains
        # node -> {prefix: next hop}; a withdrawal deletes the entry, so an
        # unreachable specific never shadows a reachable cover.
        tables: Dict[int, Dict[Prefix, int]] = {}
        trackers = {dest: ForwardingTracker(self._ttl) for dest in chains}
        # flow key -> [opened, fate index]: its open constant-fate segment.
        segments: Dict[FlowKey, List] = {}
        row_start = start
        self.change_instants = self.walks_invalidated = self.lpm_resolves = 0
        for t0, _t1, batch in self._log.instants(start, end):
            self.change_instants += 1
            for change in batch:
                table = tables.get(change.node)
                if table is None:
                    table = tables[change.node] = {}
                if change.next_hop is None:
                    table.pop(change.prefix, None)
                else:
                    table[change.prefix] = change.next_hop
            # With the whole instant in the tables, resolve once per (node,
            # covered destination); dict.fromkeys keeps first-seen order.
            moved = dict.fromkeys(
                (change.node, dest)
                for change in batch
                for dest in self._covered_by(change.prefix)
            )
            stale: List[FlowKey] = []
            for node, dest in moved:
                # The longest match: the first chain entry the node holds.
                table = tables[node]
                hop = None
                for prefix in chains[dest]:
                    hop = table.get(prefix)
                    if hop is not None:
                        break
                for origin in trackers[dest].set_next_hop(node, hop):
                    stale.append((dest, origin))
            self.lpm_resolves += len(moved)
            self.walks_invalidated += len(stale)
            if not segments:
                stale = list(self._streams)  # the classification at ``start``
            elif not self._epoch_rows:
                self._account(report, segments, stale, t0)
            elif moved:
                # Rows split wherever a changed prefix covers a destination,
                # whether or not any fate moved.
                self._account(report, segments, segments, t0, row_start)
                row_start = t0
            for key in stale:
                fate = trackers[key[0]].walk(key[1]).fate
                segments[key] = [t0, _FATE_INDEX[fate]]
        if segments:
            self._account(
                report, segments, segments, end,
                row_start if self._epoch_rows else None,
            )
        self.walks = sum(tracker.walks for tracker in trackers.values())
        return report

    def _account(
        self,
        report: TrafficReport,
        segments: Dict[FlowKey, List],
        keys: Iterable[FlowKey],
        until: float,
        row_start: Optional[float] = None,
    ) -> None:
        """Account the flows of ``keys`` up to ``until`` and reopen their
        segments there; with ``row_start``, also emit the tally as a row.

        Per-flow counts over a merged segment telescope to the sum of its
        per-epoch counts (CBR counting is a first-index difference), so this
        is bit-identical to per-epoch accounting.
        """
        tally = [0, 0, 0]
        for key in keys:
            segment = segments[key]
            opened, fate = segment
            for stream in self._streams[key]:
                tally[fate] += stream.count_in(opened, until)
            segment[0] = until
        offered = sum(tally)
        report.offered += offered
        report.delivered += tally[0]
        report.blackholed += tally[1]
        report.looped += tally[2]
        if row_start is not None:
            report.epoch_rows.append(EpochTraffic(row_start, until, offered, *tally))
