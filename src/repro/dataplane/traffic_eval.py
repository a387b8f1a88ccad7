"""Traffic-weighted data-plane evaluation over prefix populations.

The paper's ``looping_ratio`` treats every packet equally and one destination
at a time.  Production damage is weighted: a loop that catches the heaviest
flows of a 256-prefix table hurts more than one catching a trickle.
:class:`TrafficMatrixEvaluator` replays the run's FIB log across *all*
prefixes, resolves every flow by longest prefix match, and reports the
**fraction of offered traffic** that was looped / blackholed / delivered —
the ROADMAP's millions-of-users metric.

Its replay, :meth:`TrafficMatrixEvaluator.segments`, is the data plane's one
change-driven evaluation loop: the paper's single-prefix report
(:class:`~repro.dataplane.epochs.EpochEvaluator`) is its N = 1 case, and
:class:`~repro.dataplane.trajectory.PacketForwarder` is the oracle both are
checked against.

Work is per FIB *change*, not per epoch.  Each destination owns one
:class:`~repro.dataplane.packet.ForwardingTracker` holding every node's
resolved next hop for it, and one *covering chain*: every logged prefix that
contains it, most specific first.

* The destination set is static, so a prefix joins the chains once, the
  first time it appears: the addresses a structured prefix covers are one
  contiguous run of the sorted address list (two bisections), and a
  destination given as a prefix string — an opaque name like ``"dest"`` or
  a structured prefix — is covered by that prefix alone, matched exactly.
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
from typing import Dict, Iterator, List, Tuple

from ..errors import AnalysisError
from ..prefixes import parse_prefix
from .fib import Destination, FibChangeLog, Prefix
from .packet import DEFAULT_TTL, ForwardingTracker, PacketFate, WalkResult
from .traffic import CbrSource, TrafficMatrix

_FATE_INDEX = {
    PacketFate.DELIVERED: 0,
    PacketFate.DROPPED_NO_ROUTE: 1,
    PacketFate.TTL_EXPIRED: 2,
}
"""Tally slots: delivered, blackholed, looped."""

FlowKey = Tuple[Destination, int]
"""``(destination, source node)``: flows sharing it share every fate."""

Segment = Tuple[List[CbrSource], float, WalkResult]
"""``(streams, opened, fate)``: one flow key's arrival processes and the walk
that decided their packets from ``opened`` until the segment closed."""


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
        # A lone prefix-string destination is covered by its own changes
        # alone, so the replay need not read any other prefix's.
        dests = list(self._chains)
        lone = len(dests) == 1 and isinstance(dests[0], str)
        self._lone_prefix = dests[0] if lone else None
        # What the last evaluate() did, for telemetry.
        self.change_instants = 0
        self.walks = 0
        self.walks_invalidated = 0
        self.lpm_resolves = 0

    def _covered_by(self, prefix: Prefix) -> Tuple[Destination, ...]:
        """The destinations whose LPM resolution a change to ``prefix`` can
        move: exact, since a resolution only ever returns a containing
        prefix.  Computed on the first sight of ``prefix``, which also
        enters it into their chains; kept in ``_covered``."""
        # A prefix-string destination is matched by name, whatever the
        # string's form: its chain holds only itself.
        hit = (prefix,) if prefix in self._chains else ()
        for dest in hit:
            self._chains[dest].append(prefix)
        spec = parse_prefix(prefix)
        if spec is not None:
            addresses = self._addresses
            low = bisect_left(addresses, spec.value)
            high = bisect_left(addresses, spec.value + spec.size, low)
            self._lengths[prefix] = spec.length
            for dest in addresses[low:high]:
                chain = self._chains[dest]
                chain.append(prefix)
                chain.sort(key=self._lengths.__getitem__, reverse=True)
            hit += tuple(addresses[low:high])
        self._covered[prefix] = hit
        return hit

    def segments(
        self, start: float, end: float
    ) -> Iterator[Tuple[float, List[Segment]]]:
        """Yield ``(closed, segments)``: the constant-fate segments that
        close at ``closed``, in ``[start, end)``.

        A segment closes when a FIB change invalidates its walk and at
        ``end``; with ``epoch_rows``, every segment also closes (and
        reopens) wherever a changed prefix covers some destination, so each
        yield is one row.  The work counters describe the last replay once
        it is exhausted.
        """
        chains, streams = self._chains, self._streams
        # node -> {prefix: next hop} over the prefixes that cover some
        # destination; a withdrawal deletes the entry, so an unreachable
        # specific never shadows a reachable cover.
        tables: Dict[int, Dict[Prefix, int]] = {}
        trackers = {dest: ForwardingTracker(self._ttl) for dest in chains}
        # flow key -> [opened, fate]: its open constant-fate segment.
        segments: Dict[FlowKey, List] = {}
        self.change_instants = self.walks_invalidated = self.lpm_resolves = 0
        for t0, _t1, batch in self._log.instants(start, end, self._lone_prefix):
            self.change_instants += 1
            # Apply the whole instant, then resolve once per (node, covered
            # destination), in first-seen order.
            moved: Dict[Tuple[int, Destination], None] = {}
            for change in batch:
                covered = self._covered.get(change.prefix)
                if covered is None:
                    covered = self._covered_by(change.prefix)
                if not covered:
                    continue
                table = tables.get(change.node)
                if table is None:
                    table = tables[change.node] = {}
                if change.next_hop is None:
                    table.pop(change.prefix, None)
                else:
                    table[change.prefix] = change.next_hop
                for dest in covered:
                    moved[change.node, dest] = None
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
                stale = list(streams)  # the classification at ``start``
            elif not self._epoch_rows:
                if stale:
                    yield t0, [(streams[key], *segments[key]) for key in stale]
            elif moved:
                # Rows split wherever a changed prefix covers a destination,
                # whether or not any fate moved.
                yield t0, [(streams[key], *seg) for key, seg in segments.items()]
                for segment in segments.values():
                    segment[0] = t0
            for key in stale:
                segments[key] = [t0, trackers[key[0]].walk(key[1])]
        if segments:
            yield end, [(streams[key], *seg) for key, seg in segments.items()]
        self.walks = sum(tracker.walks for tracker in trackers.values())

    def evaluate(self, start: float, end: float) -> TrafficReport:
        """Evaluate flow fates over ``[start, end)``.

        Per-flow counts over a merged segment telescope to the sum of its
        per-epoch counts (CBR counting is a first-index difference), so this
        is bit-identical to per-epoch accounting.
        """
        report = TrafficReport(
            window=(start, end),
            flows=len(self._matrix.flows),
            prefixes=len(self._matrix.prefixes()),
        )
        row_start = start
        for closed, segments in self.segments(start, end):
            tally = [0, 0, 0]
            for streams, opened, result in segments:
                fate = _FATE_INDEX[result.fate]
                for stream in streams:
                    tally[fate] += stream.count_in(opened, closed)
            offered = sum(tally)
            report.offered += offered
            report.delivered += tally[0]
            report.blackholed += tally[1]
            report.looped += tally[2]
            if self._epoch_rows:
                report.epoch_rows.append(EpochTraffic(row_start, closed, offered, *tally))
                row_start = closed
        return report
