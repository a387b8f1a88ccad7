"""Gao-Rexford business relationships and the valley-free policy.

The paper's experiments use plain shortest-path routing, but real
inter-domain routing is governed by AS business relationships: an AS pays
its **providers**, is paid by its **customers**, and settlement-free
**peers** exchange only their own/customer routes.  Gao & Rexford showed
that the standard export rules below guarantee BGP convergence to stable,
*valley-free* routes — which makes this policy the natural realistic
counterpart to the paper's shortest-path baseline, and a good stress of the
library's policy hooks.

Rules implemented by :class:`GaoRexfordPolicy`:

* **Preference** — customer routes over peer routes over provider routes
  (you earn on the first, pay on the last); ties fall back to shortest
  path, then smallest next hop.
* **Export** — your own and your customers' routes go to everyone; routes
  learned from peers or providers go to customers only.

:func:`relationships_from_tiers` derives a relationship assignment from the
synthetic Internet generator's core/transit/stub tiers, and
:func:`is_valley_free` checks the classic path shape (uphill, at most one
peering step, downhill) used by the test suite to validate convergence
outcomes.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence

from ..errors import ConfigError, ProtocolError
from ..topology import Topology
from ..topology.internet import Tier
from .policy import RoutingPolicy
from .route import Route


class Relationship(enum.Enum):
    """The local AS's view of one neighbor."""

    CUSTOMER = "customer"   # the neighbor pays us
    PEER = "peer"           # settlement-free
    PROVIDER = "provider"   # we pay the neighbor


#: LOCAL_PREF bands implementing "prefer customer > peer > provider".
RELATIONSHIP_LOCAL_PREF = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}


class GaoRexfordPolicy(RoutingPolicy):
    """The canonical economically-rational routing policy.

    Parameters
    ----------
    relationships:
        ``{neighbor_id: Relationship}`` from this AS's perspective.  Every
        neighbor the speaker ever hears from or exports to must be present;
        unknown neighbors raise :class:`ProtocolError` (a missing entry is
        a configuration bug, not a default).
    """

    def __init__(self, relationships: Dict[int, Relationship]) -> None:
        self._relationships = dict(relationships)

    def relationship(self, neighbor: int) -> Relationship:
        try:
            return self._relationships[neighbor]
        except KeyError:
            raise ProtocolError(
                f"no business relationship configured for neighbor {neighbor}"
            ) from None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def local_pref(self, neighbor: int, route: Route) -> int:
        return RELATIONSHIP_LOCAL_PREF[self.relationship(neighbor)]

    def accept_export(self, neighbor: int, route: Route) -> bool:
        """Own + customer routes to everyone; peer/provider routes to
        customers only."""
        if route.is_local:
            return True
        assert route.next_hop is not None
        learned_from = self.relationship(route.next_hop)
        if learned_from is Relationship.CUSTOMER:
            return True
        return self.relationship(neighbor) is Relationship.CUSTOMER


def relationships_from_tiers(
    topo: Topology, tiers: Dict[int, str]
) -> Dict[int, Dict[int, Relationship]]:
    """Derive per-node relationship maps from a tier assignment.

    Orientation rules mirror how the synthetic generator wires the graph:

    * different tiers — the hierarchically higher AS (core > transit >
      stub) is the provider;
    * core-core — settlement-free peering (the tier-1 full mesh);
    * transit-transit — the generator chains later transit ASes under
      earlier ones, so the smaller id is the provider;
    * stub-stub — does not occur in generated graphs, treated as peering.
    """
    result: Dict[int, Dict[int, Relationship]] = {node: {} for node in topo.nodes}
    for u, v, _delay in topo.edges():
        try:
            rank_u, rank_v = Tier.RANK[tiers[u]], Tier.RANK[tiers[v]]
        except KeyError as exc:
            raise ConfigError(f"node missing from tier map: {exc}") from None
        if rank_u == rank_v:
            if tiers[u] == Tier.TRANSIT:
                provider, customer = (u, v) if u < v else (v, u)
                result[provider][customer] = Relationship.CUSTOMER
                result[customer][provider] = Relationship.PROVIDER
            else:
                result[u][v] = Relationship.PEER
                result[v][u] = Relationship.PEER
        else:
            provider, customer = (u, v) if rank_u < rank_v else (v, u)
            result[provider][customer] = Relationship.CUSTOMER
            result[customer][provider] = Relationship.PROVIDER
    return result


def is_valley_free(
    nodes_from_self_to_origin: Sequence[int],
    relationships: Dict[int, Dict[int, Relationship]],
) -> bool:
    """Check the Gao-Rexford path shape.

    ``nodes_from_self_to_origin`` is a node path in the paper's notation —
    the owning AS first, the origin last (what
    :meth:`BgpSpeaker.full_path` returns).  Reading the *announcement*
    direction (origin outward), a valid path climbs customer→provider
    edges, crosses at most one peering edge, then descends
    provider→customer — no "valleys" (provider→customer followed by an
    ascent) and no double peering.
    """
    announce_order: List[int] = list(reversed(nodes_from_self_to_origin))
    phase = "up"
    for sender, receiver in zip(announce_order, announce_order[1:]):
        rel = relationships[receiver][sender]  # the receiver's view of sender
        if rel is Relationship.CUSTOMER:
            step = "up"          # announcement climbed to a provider
        elif rel is Relationship.PEER:
            step = "peer"
        else:
            step = "down"        # announcement descended to a customer
        if step == "up":
            if phase != "up":
                return False     # an ascent after the peak: a valley
        elif step == "peer":
            if phase != "up":
                return False     # second peering edge (or peer after down)
            phase = "peered"
        else:
            phase = "down"
    return True
