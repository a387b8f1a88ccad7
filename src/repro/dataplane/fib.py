"""Forwarding state: per-node FIBs over time.

The data-plane analysis needs the forwarding graph — "which node forwards to
which" — at every instant of the convergence window.  Speakers report each
next-hop change to a :class:`FibChangeLog`; the log can replay itself into a
:class:`ForwardingGraph` snapshot at any time, or stream the sequence of
*epochs* (maximal intervals over which the graph is constant).  Both epoch
streams, and the change-driven evaluators that skip the snapshots, read one
replay loop: :meth:`FibChangeLog.instants`, the window cut at its change
instants with the batch of changes that opens each piece.

Next-hop encoding, shared with :class:`~repro.bgp.speaker.BgpSpeaker`:

* ``next_hop == node``  — the node delivers locally (it is the destination),
* ``next_hop is None`` (or absent) — no route: packets are dropped,
* otherwise — forward to that neighbor.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..errors import AnalysisError
from ..prefixes import parse_prefix
from ..prefixes.trie import RadixTrie

Prefix = str

Destination = Union[int, str]
"""What a packet is addressed to: an integer address inside a structured
prefix, or (for legacy opaque prefixes like ``"dest"``) the prefix string
itself, matched exactly."""

_parse = lru_cache(maxsize=None)(parse_prefix)


class FibChange(NamedTuple):
    """One next-hop change at one node."""

    time: float
    node: int
    prefix: Prefix
    next_hop: Optional[int]


class ForwardingGraph:
    """A snapshot of every node's next hop for one prefix.

    This is a functional graph (out-degree ≤ 1), which is what makes loop
    analysis cheap: every walk either terminates or enters exactly one cycle.
    """

    def __init__(self, next_hops: Optional[Dict[int, Optional[int]]] = None) -> None:
        self._next_hops: Dict[int, Optional[int]] = dict(next_hops or {})

    def set_next_hop(self, node: int, next_hop: Optional[int]) -> None:
        self._next_hops[node] = next_hop

    def next_hop(self, node: int) -> Optional[int]:
        """The node's next hop (None = no route)."""
        return self._next_hops.get(node)

    def delivers_locally(self, node: int) -> bool:
        """True when the node is a local-delivery point for the prefix."""
        return self._next_hops.get(node) == node

    def nodes_with_route(self) -> List[int]:
        """Nodes currently holding some forwarding entry, ascending."""
        return sorted(n for n, nh in self._next_hops.items() if nh is not None)

    def copy(self) -> "ForwardingGraph":
        return ForwardingGraph(self._next_hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardingGraph):
            return NotImplemented
        return self._next_hops == other._next_hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingGraph entries={len(self._next_hops)}>"


class FibChangeLog:
    """Append-only, time-ordered log of FIB changes across all nodes.

    Wire a speaker's ``fib_listener`` to :meth:`record`; the experiment
    harness does this for every node.
    """

    def __init__(self) -> None:
        self._changes: List[FibChange] = []

    def record(
        self, time: float, node: int, prefix: Prefix, next_hop: Optional[int]
    ) -> None:
        """Append one change; times must be non-decreasing."""
        if self._changes and time < self._changes[-1].time:
            raise AnalysisError(
                f"FIB change at t={time} recorded after t={self._changes[-1].time}"
            )
        self._changes.append(FibChange(time, node, prefix, next_hop))

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self) -> Iterator[FibChange]:
        return iter(self._changes)

    def changes_for(self, prefix: Prefix) -> List[FibChange]:
        return [c for c in self._changes if c.prefix == prefix]

    def change_times(self, prefix: Prefix) -> List[float]:
        """Distinct change instants for ``prefix``, ascending."""
        seen = sorted({c.time for c in self._changes if c.prefix == prefix})
        return seen

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def snapshot_at(self, prefix: Prefix, time: float) -> ForwardingGraph:
        """The forwarding graph for ``prefix`` as of ``time`` (inclusive)."""
        graph = ForwardingGraph()
        for change in self._changes:
            if change.time > time:
                break
            if change.prefix == prefix:
                graph.set_next_hop(change.node, change.next_hop)
        return graph

    def instants(
        self, start: float, end: float, prefix: Optional[Prefix] = None
    ) -> Iterator[Tuple[float, float, List[FibChange]]]:
        """Yield ``(t0, t1, batch)``: the window ``[start, end)`` cut at its
        change instants.

        ``batch`` holds the changes (of ``prefix``, or of every prefix) that
        take effect at ``t0`` and nothing else moves before ``t1``.  The
        first batch is everything recorded at or before ``start`` — possibly
        nothing — and opens at ``start``; each later one is every change
        sharing one instant, so zero-length epochs never appear; changes at
        or after ``end`` are ignored and ``start == end`` yields nothing.
        This is the one replay loop: :meth:`epochs` and :meth:`multi_epochs`
        materialize snapshots from it, the change-driven evaluators read
        the batches directly.
        """
        if end < start:
            raise AnalysisError(f"window end {end} before start {start}")
        changes = self._changes if prefix is None else self.changes_for(prefix)
        index = 0
        while index < len(changes) and changes[index].time <= start:
            index += 1
        first, cursor = 0, start
        while cursor < end:
            upcoming = changes[index].time if index < len(changes) else end
            t1 = min(upcoming, end)
            yield (cursor, t1, changes[first:index])
            first, cursor = index, t1
            # lint: allow(float-time-eq) -- cursor was read from this very
            # list, so equality groups records sharing one float value.
            while (
                index < len(changes)
                and changes[index].time == cursor  # lint: allow(float-time-eq)
            ):
                index += 1

    def epochs(
        self, prefix: Prefix, start: float, end: float
    ) -> Iterator[Tuple[float, float, ForwardingGraph]]:
        """Yield ``(epoch_start, epoch_end, graph)`` covering ``[start, end)``.

        Each yielded graph is constant over its interval; consecutive graphs
        differ.  The first epoch starts exactly at ``start`` with the state
        accumulated up to (and including) ``start``.  Zero-length epochs
        (several changes at one instant) are merged away.
        """
        graph = ForwardingGraph()
        for t0, t1, batch in self.instants(start, end, prefix):
            for change in batch:
                graph.set_next_hop(change.node, change.next_hop)
            yield (t0, t1, graph.copy())

    # ------------------------------------------------------------------
    # Multi-prefix reconstruction
    # ------------------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        """Every prefix that ever appeared in the log, sorted."""
        return sorted({c.prefix for c in self._changes})

    def multi_epochs(
        self, start: float, end: float
    ) -> Iterator[Tuple[float, float, "MultiPrefixFib", FrozenSet[Prefix]]]:
        """Yield ``(epoch_start, epoch_end, fib, changed)`` over ``[start, end)``.

        Like :meth:`epochs` but across **all** prefixes at once: an epoch
        boundary is any instant at which any prefix's forwarding state
        changes anywhere.  ``changed`` is the set of prefixes whose entries
        were touched at the epoch's opening boundary (for the first epoch:
        everything applied at or before ``start``) — evaluators use it to
        re-derive only the forwarding state that could have moved.  The
        yielded :class:`MultiPrefixFib` is a **live view** that mutates on
        the next iteration — callers must finish with it before advancing
        (copying N-prefix state per epoch would be quadratic in exactly the
        workloads this exists for).
        """
        fib = MultiPrefixFib()
        for t0, t1, batch in self.instants(start, end):
            for change in batch:
                fib.set_entry(change.node, change.prefix, change.next_hop)
            yield (t0, t1, fib, frozenset(change.prefix for change in batch))


# ----------------------------------------------------------------------
# Longest-prefix-match resolution
# ----------------------------------------------------------------------


class MultiPrefixFib:
    """Every node's forwarding table over a *population* of prefixes.

    Structured prefixes (parseable by :func:`repro.prefixes.parse_prefix`)
    resolve by longest match, so a specific shadows its cover and withdrawing
    the specific (``next_hop=None``) falls back to the cover — the semantics
    aggregation/deaggregation events rely on.  Opaque legacy prefixes match
    exactly and never interact with each other or with structured ones.

    A ``next_hop`` of ``None`` **deletes** the entry rather than storing a
    blackhole: an unreachable specific must not shadow a reachable cover.
    """

    def __init__(self) -> None:
        self._tries: Dict[int, RadixTrie] = {}
        self._opaque: Dict[int, Dict[Prefix, int]] = {}

    def set_entry(self, node: int, prefix: Prefix, next_hop: Optional[int]) -> None:
        spec = _parse(prefix)
        if spec is not None:
            trie = self._tries.get(node)
            if next_hop is None:
                if trie is not None:
                    trie.remove(spec)
                return
            if trie is None:
                trie = self._tries[node] = RadixTrie()
            # Payload carries the canonical string so resolve() never
            # re-formats a PrefixSpec on the per-hop hot path.
            trie.insert(spec, (prefix, next_hop))
        else:
            table = self._opaque.get(node)
            if next_hop is None:
                if table is not None:
                    table.pop(prefix, None)
                return
            if table is None:
                table = self._opaque[node] = {}
            table[prefix] = next_hop

    def resolve(self, node: int, destination: Destination) -> Optional[Tuple[Prefix, int]]:
        """LPM (or exact-match) resolution: ``(matched_prefix, next_hop)``.

        ``destination`` is an integer address for structured prefixes or the
        opaque prefix string itself.  ``None`` when the node has no matching
        route.
        """
        if isinstance(destination, int):
            trie = self._tries.get(node)
            if trie is None:
                return None
            hit = trie.lookup(destination)
            if hit is None:
                return None
            return hit[1]  # the (prefix, next_hop) payload stored at insert
        table = self._opaque.get(node)
        if table is None or destination not in table:
            return None
        return (destination, table[destination])

    def next_hop(self, node: int, destination: Destination) -> Optional[int]:
        hit = self.resolve(node, destination)
        return None if hit is None else hit[1]
