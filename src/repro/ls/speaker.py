"""A link-state router: LSA flooding plus Dijkstra/BFS shortest paths.

The §2 background protocol: "Hengartner et al. illustrated that transient
loops can form in link state protocols" and §6 adds "link state protocols
typically propagate updates fast to reduce the duration of inconsistency,
but transient loops can still form since delays are inevitable."  This
module makes both halves measurable with the library's loop toolkit: the
same topologies, failures, FIB logging, and loop timelines as the BGP
speaker, but with OSPF/IS-IS-style routing underneath.

Model (single area, unit link costs):

* every router originates an LSA listing its adjacencies, re-originating
  with a higher sequence number whenever they change;
* LSAs flood reliably: a router forwards any *fresher* LSA to all
  neighbors except the one it came from;
* routes are recomputed from the link-state database on every change,
  using BFS (unit costs) with the library's smallest-id tie-break and the
  standard two-way connectivity check (an edge counts only if both
  endpoints advertise it);
* destinations are prefixes statically mapped to their owner routers
  (the equivalent of the BGP experiments' single originated prefix).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..engine import RandomStreams, Scheduler
from ..errors import ProtocolError
from ..net import Node
from .lsa import LinkStateAd, make_lsa

FibListener = Callable[[float, int, str, Optional[int]], None]


class LinkStateSpeaker(Node):
    """One router in a link-state domain.

    Parameters
    ----------
    node_id, scheduler:
        Identity and the shared scheduler.
    streams:
        Named RNG streams (message processing delay).
    destinations:
        ``{prefix: owner_node}`` — domain-wide static knowledge of which
        router each destination sits behind.
    processing_delay:
        Uniform per-message CPU service bounds; link-state studies use the
        same model as BGP but the protocol sends far fewer messages.
    fib_listener:
        Optional next-hop change callback (same shape as the BGP speaker's).
    """

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        streams: RandomStreams,
        destinations: Dict[str, int],
        processing_delay: tuple = (0.1, 0.5),
        fib_listener: Optional[FibListener] = None,
    ) -> None:
        rng = streams.stream(f"ls-processing:{node_id}")
        low, high = processing_delay

        def service_time() -> float:
            return rng.uniform(low, high)

        super().__init__(node_id, scheduler, service_time)
        self._destinations = dict(destinations)
        self._lsdb: Dict[int, LinkStateAd] = {}
        self._sequence = 0
        self.fib: Dict[str, Optional[int]] = {}
        self._fib_listener = fib_listener

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._originate()

    def _originate(self) -> None:
        """Issue a fresh LSA describing the current adjacencies."""
        self._sequence += 1
        lsa = make_lsa(self.node_id, self._sequence, self.neighbors)
        self._install(lsa)
        self._flood(lsa, except_neighbor=None)

    # ------------------------------------------------------------------
    # Flooding
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message) -> None:
        if not self.link_is_up(src):
            return
        if not isinstance(message, LinkStateAd):
            raise ProtocolError(f"unexpected message {message!r} from {src}")
        current = self._lsdb.get(message.origin)
        if current is not None and not message.newer_than(current):
            return  # duplicate or stale: flooding terminates here
        self._install(message)
        self._flood(message, except_neighbor=src)

    def _flood(self, lsa: LinkStateAd, except_neighbor: Optional[int]) -> None:
        for neighbor in self.neighbors:
            if neighbor != except_neighbor:
                self.send(neighbor, lsa)

    def _install(self, lsa: LinkStateAd) -> None:
        self._lsdb[lsa.origin] = lsa
        self._recompute()

    # ------------------------------------------------------------------
    # Adjacency changes
    # ------------------------------------------------------------------

    def on_link_down(self, neighbor: int) -> None:
        """Interface down: advertise the new adjacency set immediately."""
        self._originate()

    def on_link_up(self, neighbor: int) -> None:
        """Interface up: re-advertise, and sync our database to the peer."""
        self._originate()
        for lsa in sorted(self._lsdb.values(), key=lambda l: l.origin):
            self.send(neighbor, lsa)

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------

    def lsdb_edges(self) -> Dict[int, List[int]]:
        """The two-way-checked adjacency view of the LSDB."""
        adjacency: Dict[int, List[int]] = {}
        for origin, lsa in self._lsdb.items():
            for neighbor in lsa.neighbors:
                other = self._lsdb.get(neighbor)
                if other is not None and origin in other.neighbors:
                    adjacency.setdefault(origin, []).append(neighbor)
        for neighbors in adjacency.values():
            neighbors.sort()
        return adjacency

    def _recompute(self) -> None:
        """BFS from self over the LSDB; update per-prefix next hops."""
        adjacency = self.lsdb_edges()
        distance: Dict[int, int] = {self.node_id: 0}
        first_hop: Dict[int, Optional[int]] = {self.node_id: None}
        frontier = [self.node_id]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in adjacency.get(node, []):
                    candidate_hop = (
                        neighbor if node == self.node_id else first_hop[node]
                    )
                    if neighbor not in distance:
                        distance[neighbor] = distance[node] + 1
                        first_hop[neighbor] = candidate_hop
                        next_frontier.append(neighbor)
                    elif distance[neighbor] == distance[node] + 1:
                        # Equal-cost tie: keep the smallest first hop.
                        incumbent = first_hop[neighbor]
                        if (
                            incumbent is not None
                            and candidate_hop is not None
                            and candidate_hop < incumbent
                        ):
                            first_hop[neighbor] = candidate_hop
            frontier = next_frontier

        for prefix, owner in self._destinations.items():
            if owner == self.node_id:
                next_hop: Optional[int] = self.node_id
            elif owner in distance:
                next_hop = first_hop[owner]
            else:
                next_hop = None
            self._set_fib(prefix, next_hop)

    def _set_fib(self, prefix: str, next_hop: Optional[int]) -> None:
        had = prefix in self.fib
        if had and self.fib[prefix] == next_hop:
            return
        if not had and next_hop is None:
            return
        self.fib[prefix] = next_hop
        if self._fib_listener is not None:
            self._fib_listener(self.scheduler.now, self.node_id, prefix, next_hop)

    def next_hop(self, prefix: str) -> Optional[int]:
        """Current forwarding next hop (own id = deliver locally)."""
        return self.fib.get(prefix)
