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
LPM-resolved next hop for it:

* a change to prefix ``p`` at node ``n`` can move only the destinations ``p``
  covers (structured) or names (opaque), and only ``n``'s hop for them — so
  it costs one :meth:`MultiPrefixFib.resolve` per (node, covered
  destination), not one per step of every re-walk;
* the tracker hands back exactly the flows whose memoized walk read ``n``;
  only those close their constant-fate segment and are walked again;
* CBR counting is a first-index difference, so a flow's count over a merged
  segment equals the sum of its per-epoch counts exactly — accounting once
  per segment is bit-identical to accounting once per epoch.

All accounting is integer packet counts, so results are identical across
platforms and process counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import AnalysisError
from ..prefixes import ADDRESS_BITS, PrefixSpec, parse_prefix
from ..prefixes.trie import RadixTrie
from .fib import FibChangeLog, MultiPrefixFib, Prefix
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
        # Inverted destination index: every integer destination as a /32
        # radix-trie entry, so "which destinations does this changed prefix
        # touch?" is a subtree walk (specifics enumeration), asked once per
        # prefix and memoized.  Opaque destinations match exactly, by name.
        self._destinations = dict.fromkeys(dest for dest, _ in self._streams)
        self._dest_trie = RadixTrie()
        for dest in self._destinations:
            if isinstance(dest, int):
                self._dest_trie.insert(PrefixSpec(dest, ADDRESS_BITS), dest)
        self._covered: Dict[Prefix, Tuple[Destination, ...]] = {}
        # What the last evaluate() did, for telemetry.
        self.change_instants = 0
        self.walks = 0
        self.walks_invalidated = 0
        self.lpm_resolves = 0

    def _covered_by(self, prefix: Prefix) -> Tuple[Destination, ...]:
        """The destinations whose LPM resolution a change to ``prefix`` can
        move: exact, since a lookup only ever returns a containing prefix."""
        hit = self._covered.get(prefix)
        if hit is None:
            spec = parse_prefix(prefix)
            if spec is not None:
                hit = tuple(dest for _spec, dest in self._dest_trie.covered(spec))
            else:
                hit = (prefix,) if prefix in self._destinations else ()
            self._covered[prefix] = hit
        return hit

    def evaluate(self, start: float, end: float) -> TrafficReport:
        """Evaluate flow fates over ``[start, end)``."""
        report = TrafficReport(
            window=(start, end),
            flows=len(self._matrix.flows),
            prefixes=len(self._matrix.prefixes()),
        )
        fib = MultiPrefixFib()
        trackers = {dest: ForwardingTracker(self._ttl) for dest in self._destinations}
        # flow key -> [opened, fate index]: its open constant-fate segment.
        segments: Dict[FlowKey, List] = {}
        row_start = start
        self.change_instants = self.walks_invalidated = self.lpm_resolves = 0
        for t0, _t1, batch in self._log.instants(start, end):
            self.change_instants += 1
            for change in batch:
                fib.set_entry(change.node, change.prefix, change.next_hop)
            # With the whole instant in the tables, resolve once per (node,
            # covered destination); dict.fromkeys keeps first-seen order.
            moved = dict.fromkeys(
                (change.node, dest)
                for change in batch
                for dest in self._covered_by(change.prefix)
            )
            stale: List[FlowKey] = []
            for node, dest in moved:
                hit = fib.resolve(node, dest)
                hop = None if hit is None else hit[1]
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
