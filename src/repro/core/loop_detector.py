"""Routing-loop detection in forwarding graphs.

A forwarding graph for one destination is *functional* (each node has at most
one next hop), so its loops are exactly the cycles of a functional graph and
can all be found in O(nodes) by the classic three-color walk.  On top of the
per-snapshot detector, :func:`loop_timeline` replays a FIB change log and
reports each distinct loop's lifetime — the per-loop statistics the paper
lists as future work ("the loop size and duration").  It runs the detector
once, on the state at the window's start, and from then on looks only where
a change happened: a cycle dies only when a member changes, and a new one
must pass through a node that changed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..dataplane import FibChangeLog, ForwardingGraph, canonical_cycle, walk

Cycle = Tuple[int, ...]


def find_loops(graph: ForwardingGraph) -> List[Cycle]:
    """All forwarding cycles in ``graph``, as canonical tuples, sorted.

    A node whose next hop is itself is local delivery, not a 1-cycle.
    """
    state: Dict[int, int] = {}  # 0 absent / 1 on current walk / 2 finished
    position: Dict[int, int] = {}
    loops: List[Cycle] = []

    for start in graph.nodes_with_route():
        if state.get(start):
            continue
        trail: List[int] = []
        node: Optional[int] = start
        while node is not None:
            if graph.delivers_locally(node):
                break
            mark = state.get(node, 0)
            if mark == 2:
                break  # joins an already-resolved walk
            if mark == 1:
                cycle = tuple(trail[position[node]:])
                loops.append(canonical_cycle(cycle))
                break
            state[node] = 1
            position[node] = len(trail)
            trail.append(node)
            node = graph.next_hop(node)
        for visited in trail:
            state[visited] = 2
    return sorted(loops)


def is_loop_free(graph: ForwardingGraph) -> bool:
    """True when the forwarding graph contains no cycle."""
    return not find_loops(graph)


@dataclass(frozen=True)
class LoopInterval:
    """One contiguous lifetime of one distinct loop.

    The same cycle can re-form later; it then gets a second interval.
    """

    cycle: Cycle
    start: float
    end: float

    @property
    def size(self) -> int:
        """Number of nodes in the loop."""
        return len(self.cycle)

    @property
    def duration(self) -> float:
        return self.end - self.start


def loop_timeline(
    log: FibChangeLog,
    prefix: str,
    start: float,
    end: float,
) -> List[LoopInterval]:
    """Every loop's lifetime within ``[start, end)``, in start order.

    Consecutive epochs in which the same cycle persists are merged into one
    interval.  This is the paper's "next steps" measurement: it turns the
    aggregate looping metrics into per-loop size/duration statistics.

    Change-driven: :func:`find_loops` scans the graph once, for the state at
    ``start``.  After that a cycle can only die at an instant that changes
    one of its members, and a cycle can only form through a node that
    changed, so each instant follows next hops from its changed nodes alone.
    """
    graph = ForwardingGraph()
    on_cycle: Dict[int, Cycle] = {}  # member node -> the live cycle it sits on
    opened: Dict[Cycle, float] = {}
    finished: List[LoopInterval] = []
    scanned = False
    for t0, _t1, batch in log.instants(start, end, prefix):
        for change in batch:
            graph.set_next_hop(change.node, change.next_hop)
        broken: Set[Cycle] = set()
        if not scanned:
            formed = set(find_loops(graph))
            scanned = True
        else:
            changed = sorted({change.node for change in batch})
            broken = {on_cycle[node] for node in changed if node in on_cycle}
            for cycle in sorted(broken):
                for member in cycle:
                    del on_cycle[member]
            # A walk with no TTL to run out ends in the cycle it enters, if
            # any: one this instant formed, or one already open (a no-op).
            formed = {walk(graph, node, ttl=sys.maxsize).loop for node in changed}
            formed.discard(None)
        for cycle in sorted(formed):
            # A cycle broken and re-formed within one instant never ceased
            # to exist between epochs: its interval stays open.
            opened.setdefault(cycle, t0)
            for member in cycle:
                on_cycle[member] = cycle
        for cycle in sorted(broken - formed):
            finished.append(LoopInterval(cycle=cycle, start=opened.pop(cycle), end=t0))
    for cycle, since in opened.items():
        finished.append(LoopInterval(cycle=cycle, start=since, end=end))
    return sorted(finished, key=lambda i: (i.start, i.cycle))
