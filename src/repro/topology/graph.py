"""The AS-level topology abstraction.

A :class:`Topology` is an undirected graph whose vertices are Autonomous
System numbers (plain ints, one router per AS, as in the paper's simulations)
and whose edges are inter-AS adjacencies with a propagation delay.  It is a
small, dependency-free structure; conversion helpers to/from ``networkx`` are
provided for analysis code that wants graph algorithms.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import TopologyError

DEFAULT_LINK_DELAY = 0.002
"""Per-link propagation delay in seconds (2 ms, the paper's setting)."""


class Topology:
    """An undirected AS-level graph with per-link delays.

    Nodes are non-negative integers.  Edges are unordered pairs; adding an
    existing edge updates its delay.  The class is deliberately mutable —
    failure scenarios remove edges mid-simulation via the network layer, but
    the topology object itself stays the *intended* graph; the live up/down
    state belongs to :class:`repro.net.network.Network`.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._adjacency: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: int) -> None:
        """Add an isolated node (no-op if present)."""
        if node < 0:
            raise TopologyError(f"node ids must be non-negative, got {node}")
        self._adjacency.setdefault(node, {})

    def add_edge(self, u: int, v: int, delay: float = DEFAULT_LINK_DELAY) -> None:
        """Add (or re-delay) the undirected edge ``{u, v}``."""
        if u == v:
            raise TopologyError(f"self-loop edge ({u}, {v}) is not allowed")
        if delay <= 0:
            raise TopologyError(f"link delay must be positive, got {delay}")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u][v] = delay
        self._adjacency[v][u] = delay

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> List[int]:
        """All node ids in ascending order."""
        return sorted(self._adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def has_node(self, node: int) -> bool:
        return node in self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, node: int) -> List[int]:
        """Neighbors of ``node`` in ascending order (deterministic walks)."""
        try:
            return sorted(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"node {node} not in topology") from None

    def degree(self, node: int) -> int:
        if node not in self._adjacency:
            raise TopologyError(f"node {node} not in topology")
        return len(self._adjacency[node])

    def link_delay(self, u: int, v: int) -> float:
        """Propagation delay of edge ``{u, v}`` in seconds."""
        if not self.has_edge(u, v):
            raise TopologyError(f"edge ({u}, {v}) not in topology")
        return self._adjacency[u][v]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, delay)`` with u < v."""
        for u in sorted(self._adjacency):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v, self._adjacency[u][v])

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        if not self._adjacency:
            return True
        return len(self.component_of(next(iter(self._adjacency)))) == self.num_nodes

    def component_of(self, start: int, without_edge: Optional[Tuple[int, int]] = None) -> Set[int]:
        """Nodes reachable from ``start``, optionally ignoring one edge.

        ``without_edge`` lets scenario code ask "would removing this link
        partition the destination?" without mutating the topology.
        """
        if start not in self._adjacency:
            raise TopologyError(f"node {start} not in topology")
        banned = frozenset()
        if without_edge is not None:
            a, b = without_edge
            banned = frozenset(((a, b), (b, a)))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self._adjacency[node]:
                if (node, nbr) in banned:
                    continue
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen

    def is_cut_edge(self, u: int, v: int) -> bool:
        """True when removing ``{u, v}`` disconnects the graph."""
        if not self.has_edge(u, v):
            raise TopologyError(f"edge ({u}, {v}) not in topology")
        return v not in self.component_of(u, without_edge=(u, v))

    # ------------------------------------------------------------------
    # Interop & misc
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Topology":
        """An independent deep copy."""
        dup = Topology(name or self.name)
        for node in self._adjacency:
            dup.add_node(node)
        for u, v, delay in self.edges():
            dup.add_edge(u, v, delay)
        return dup

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        name: str = "topology",
    ) -> "Topology":
        """Build a topology from an iterable of ``(u, v)`` pairs."""
        topo = cls(name)
        for u, v in edges:
            topo.add_edge(u, v)
        return topo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self.name!r} n={self.num_nodes} m={self.num_edges}>"
