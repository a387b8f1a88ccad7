"""Packets, their fates, and the static forwarding-graph walk.

The simulation's loop indicator is **TTL exhaustion** (§4.2): packets start
with TTL 128 and the TTL drops by one per AS hop; a packet that dies of TTL
exhaustion must have been caught in a routing loop.  :func:`walk` computes a
packet's fate against one :class:`~repro.dataplane.fib.ForwardingGraph`
snapshot.  Because the graph is functional (one next hop per node), a walk
that revisits any node is provably stuck in a cycle and will burn its whole
TTL there — the walk short-circuits as soon as the revisit is seen instead of
iterating all 128 hops.  :func:`walk`, :func:`walk_lpm` and
:class:`ForwardingTracker` — the live per-destination state the change-driven
evaluators keep, which re-walks an origin only after a node its last walk
read has changed — share that one loop.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .fib import Destination, ForwardingGraph, MultiPrefixFib

DEFAULT_TTL = 128
"""The paper's initial TTL value."""


class PacketFate(enum.Enum):
    """What ultimately happened to a packet."""

    DELIVERED = "delivered"
    DROPPED_NO_ROUTE = "dropped-no-route"
    TTL_EXPIRED = "ttl-expired"


class WalkResult(NamedTuple):
    """The outcome of forwarding one packet through a static graph.

    Attributes
    ----------
    fate:
        Terminal outcome.
    hops:
        AS hops actually taken (for TTL expiry this equals the TTL).
    loop:
        The cycle the packet entered, as a canonical node tuple (smallest
        node first), or ``None`` when it never looped.  A packet can enter a
        loop only by expiring in it: in a *static* functional graph there is
        no escape from a cycle, so ``loop is not None`` iff
        ``fate is TTL_EXPIRED``... unless the TTL dies of sheer path length
        first, in which case ``loop`` stays ``None``.
    """

    fate: PacketFate
    hops: int
    loop: Optional[Tuple[int, ...]] = None


def canonical_cycle(cycle: Tuple[int, ...]) -> Tuple[int, ...]:
    """Rotate a cycle so its smallest node comes first (stable identity)."""
    if not cycle:
        return cycle
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def _walk(
    next_hop_of: Callable[[int], Optional[int]], source: int, ttl: int
) -> Tuple[WalkResult, List[int]]:
    """The one packet-walk loop: the fate from ``source``, and the trail.

    The trail lists exactly the nodes whose next hop the walk read — the
    terminal node, the re-entered node and, for death by path length, the
    last node consulted included — so the result stays valid until one of
    *them* changes its next hop, and no longer.
    """
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    visited = {source: 0}
    trail = [source]
    node = source
    hops = 0
    while True:
        next_hop = next_hop_of(node)
        if next_hop == node:
            return WalkResult(PacketFate.DELIVERED, hops), trail
        if next_hop is None:
            return WalkResult(PacketFate.DROPPED_NO_ROUTE, hops), trail
        hops += 1
        if hops > ttl:
            # Died of path length without provably looping.
            return WalkResult(PacketFate.TTL_EXPIRED, ttl), trail
        node = next_hop
        if node in visited:
            # Entered a cycle; in a static graph the packet now spins until
            # its TTL is gone.
            cycle = tuple(trail[visited[node]:])
            return (
                WalkResult(PacketFate.TTL_EXPIRED, ttl, loop=canonical_cycle(cycle)),
                trail,
            )
        visited[node] = len(trail)
        trail.append(node)


def walk(
    graph: ForwardingGraph,
    source: int,
    ttl: int = DEFAULT_TTL,
) -> WalkResult:
    """Forward a packet from ``source`` until delivery, drop, or TTL death.

    The destination is implicit in the graph: any node whose next hop is
    itself delivers locally.  The source's own entry is consulted first; a
    source with no route drops immediately (0 hops).
    """
    return _walk(graph.next_hop, source, ttl)[0]


def walk_lpm(
    fib: MultiPrefixFib,
    source: int,
    destination: Destination,
    ttl: int = DEFAULT_TTL,
) -> WalkResult:
    """:func:`walk`, but each hop resolves ``destination`` by longest match.

    Every node consults its own multi-prefix table, so mid-deaggregation a
    packet can ride a /22 cover at one hop and a /24 specific at the next —
    exactly the mixed-state forwarding that makes aggregation events loop.
    Per fixed destination the graph is still functional (one next hop per
    node), so revisit-short-circuiting is as sound as in :func:`walk`.
    """
    return _walk(lambda node: fib.next_hop(node, destination), source, ttl)[0]


class ForwardingTracker:
    """One destination's live forwarding state with change-driven walks.

    Holds every node's resolved next hop and memoizes one
    :class:`WalkResult` per origin together with the trail that walk read.
    :meth:`set_next_hop` drops exactly the memoized walks that read the
    changed node, so between two FIB changes only the origins a change can
    reach are ever walked again.  Invalidation scans the memo (a trail is a
    handful of nodes): a reverse node -> origins index was measured, cost
    more memory and was not faster.  ``walks`` counts the walks actually
    performed (memo misses).
    """

    __slots__ = ("_next_hops", "_ttl", "_memo", "walks")

    def __init__(self, ttl: int = DEFAULT_TTL) -> None:
        self._next_hops: Dict[int, Optional[int]] = {}
        self._ttl = ttl
        self._memo: Dict[int, Tuple[WalkResult, List[int]]] = {}
        self.walks = 0

    def set_next_hop(self, node: int, next_hop: Optional[int]) -> List[int]:
        """Set ``node``'s next hop; drop and return the origins whose
        memoized walk read it (none when the hop did not move)."""
        if self._next_hops.get(node) == next_hop:
            return []
        self._next_hops[node] = next_hop
        stale = [origin for origin, (_, trail) in self._memo.items() if node in trail]
        for origin in stale:
            del self._memo[origin]
        return stale

    def walk(self, origin: int) -> WalkResult:
        """The fate of a packet from ``origin`` under the current state."""
        memo = self._memo.get(origin)
        if memo is None:
            memo = self._memo[origin] = _walk(self._next_hops.get, origin, self._ttl)
            self.walks += 1
        return memo[0]
