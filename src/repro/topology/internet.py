"""Internet-like AS topology generator.

The paper evaluated 29/48/75/110-node topologies derived from real 2001-era
BGP routing tables (Premore's AS-graph gallery, no longer available).  As a
substitution we synthesize graphs with the structural features those AS
graphs are used for in the study:

* a small, densely-meshed **core** (tier-1-like ASes),
* a middle layer of **transit** ASes multi-homed into the core,
* a majority of low-degree **stub** ASes hanging off transit providers —
  the paper chooses destination ASes "among the nodes with the lowest
  degrees", i.e. from this stub layer.

The qualitative results that depend on the Internet-derived topologies —
looping persists through convergence, Ghost Flushing helps most, WRATE makes
Tlong looping an order of magnitude worse — are driven by this core/transit/
stub hierarchy (long backup paths through mid-degree nodes), not by the exact
2001 edge list.  The generator is deterministic for a given ``(n, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import TopologyError
from .graph import Topology

#: Sizes simulated by the paper, usable as a ready-made sweep.
PAPER_SIZES = (29, 48, 75, 110)

#: Hierarchy depth: with this probability a transit AS homes to an
#: *earlier transit AS* instead of the core, producing the chained
#: regional-provider trees that 2001-era AS graphs exhibit.  Those chains
#: are what make Tlong events interesting — a destination whose backup
#: provider sits deep in a chain has a dominant primary, and failing the
#: primary forces genuine path exploration.
TRANSIT_CHAIN_PROBABILITY = 0.55

#: Probability that a transit AS takes a second provider.
TRANSIT_MULTIHOME_PROBABILITY = 0.3


@dataclass(frozen=True)
class InternetShape:
    """Layer sizing knobs for :func:`internet_like`.

    Fractions are of the total node count; the remainder becomes stubs.
    Defaults approximate measured AS-graph proportions at small scale.
    """

    core_fraction: float = 0.10
    transit_fraction: float = 0.30
    core_mesh_probability: float = 0.7
    stub_multihome_probability: float = 0.35

    def validate(self) -> None:
        if not 0 < self.core_fraction < 1:
            raise TopologyError(f"core_fraction out of range: {self.core_fraction}")
        if not 0 <= self.transit_fraction < 1:
            raise TopologyError(f"transit_fraction out of range: {self.transit_fraction}")
        if self.core_fraction + self.transit_fraction >= 1:
            raise TopologyError("core + transit fractions must leave room for stubs")
        if not 0 < self.core_mesh_probability <= 1:
            raise TopologyError("core_mesh_probability must be in (0, 1]")
        if not 0 <= self.stub_multihome_probability <= 1:
            raise TopologyError("stub_multihome_probability must be in [0, 1]")


class Tier:
    """AS-hierarchy tier labels assigned by the generator."""

    CORE = "core"
    TRANSIT = "transit"
    STUB = "stub"

    #: Rank used to orient provider/customer relationships (lower = higher
    #: in the hierarchy).
    RANK = {CORE: 0, TRANSIT: 1, STUB: 2}


def internet_like_with_tiers(
    n: int,
    seed: int = 0,
    shape: InternetShape = InternetShape(),
) -> Tuple[Topology, Dict[int, str]]:
    """Generate an ``n``-node Internet-like AS graph plus its tier map.

    Returns ``(topology, {node: Tier.CORE | Tier.TRANSIT | Tier.STUB})``.
    Node ids are assigned core-first (``0..``), then transit, then stubs, so
    low ids are high-degree — matching the clique/b-clique convention that
    well-connected nodes carry small ids.  The graph is always connected.
    """
    if n < 8:
        raise TopologyError(f"internet-like graphs need n >= 8, got {n}")
    shape.validate()
    rng = random.Random(seed)

    num_core = max(3, round(n * shape.core_fraction))
    num_transit = max(2, round(n * shape.transit_fraction))
    num_stub = n - num_core - num_transit
    if num_stub < 1:
        raise TopologyError(
            f"shape leaves no stub nodes for n={n} "
            f"(core={num_core}, transit={num_transit})"
        )

    topo = Topology(f"internet-{n}-seed{seed}")
    core = list(range(num_core))
    transit = list(range(num_core, num_core + num_transit))
    stubs = list(range(num_core + num_transit, n))

    _mesh_core(topo, core, shape.core_mesh_probability, rng)
    _attach_transit(topo, transit, core, rng)
    _attach_stubs(topo, stubs, transit, shape.stub_multihome_probability, rng)

    assert topo.is_connected(), "generator invariant: graph must be connected"
    tiers = {node: Tier.CORE for node in core}
    tiers.update({node: Tier.TRANSIT for node in transit})
    tiers.update({node: Tier.STUB for node in stubs})
    return topo, tiers


def internet_like(
    n: int,
    seed: int = 0,
    shape: InternetShape = InternetShape(),
) -> Topology:
    """Generate an ``n``-node Internet-like AS graph (topology only).

    See :func:`internet_like_with_tiers` for the variant that also returns
    the core/transit/stub tier assignment (needed to derive Gao-Rexford
    business relationships).
    """
    topo, _tiers = internet_like_with_tiers(n, seed=seed, shape=shape)
    return topo


def _mesh_core(
    topo: Topology, core: List[int], mesh_p: float, rng: random.Random
) -> None:
    """Densely mesh the core, guaranteeing connectivity via a ring."""
    for i, u in enumerate(core):
        topo.add_edge(u, core[(i + 1) % len(core)])
    for i, u in enumerate(core):
        for v in core[i + 2 :]:
            if not topo.has_edge(u, v) and rng.random() < mesh_p:
                topo.add_edge(u, v)


def _attach_transit(
    topo: Topology,
    transit: List[int],
    core: List[int],
    rng: random.Random,
) -> None:
    """Home each transit AS either to the core or to an earlier transit AS.

    Chaining (the second case) builds regional provider trees of depth > 1;
    occasional multihoming adds the lateral links through which long backup
    paths run.
    """
    for idx, node in enumerate(transit):
        chain = idx > 0 and rng.random() < TRANSIT_CHAIN_PROBABILITY
        provider = rng.choice(transit[:idx]) if chain else rng.choice(core)
        topo.add_edge(node, provider)
        if rng.random() < TRANSIT_MULTIHOME_PROBABILITY:
            second = rng.choice(core + transit[:idx])
            if second != node and not topo.has_edge(node, second):
                topo.add_edge(node, second)


def _attach_stubs(
    topo: Topology,
    stubs: List[int],
    transit: List[int],
    multihome_p: float,
    rng: random.Random,
) -> None:
    """Hang each stub off one transit provider, sometimes two."""
    for node in stubs:
        provider = rng.choice(transit)
        topo.add_edge(node, provider)
        if rng.random() < multihome_p:
            second = rng.choice(transit)
            if second != provider and not topo.has_edge(node, second):
                topo.add_edge(node, second)


def choose_destination(topo: Topology, seed: int = 0) -> int:
    """Pick a destination AS the way the paper does.

    "The destination AS was randomly chosen among the nodes with the lowest
    degrees" — we take the nodes sharing the minimum degree and draw one
    uniformly with the given seed.
    """
    rng = random.Random(seed)
    degrees = {node: topo.degree(node) for node in topo.nodes}
    lowest = min(degrees.values())
    candidates = sorted(node for node, deg in degrees.items() if deg == lowest)
    return rng.choice(candidates)


def choose_failure_link(topo: Topology, destination: int, seed: int = 0) -> tuple:
    """Pick one of the destination's links to fail for a Tlong event.

    Only links whose removal keeps the destination connected qualify (a Tlong
    event "does not disconnect the destination AS").  Among those, the link
    carrying the most traffic is chosen — i.e. the neighbor through which
    the largest number of sources reach the destination under shortest-path
    routing — because a Tlong event by definition "forces the rest of the
    network to use less preferred paths"; failing an unused backup link
    would be a non-event.  ``seed`` breaks ties only.

    Raises :class:`TopologyError` when the destination is single-homed, in
    which case the caller should retry with a different destination.
    """
    rng = random.Random(seed)
    candidates = [
        nbr
        for nbr in topo.neighbors(destination)
        if not topo.is_cut_edge(destination, nbr)
    ]
    if not candidates:
        raise TopologyError(
            f"destination {destination} has no failable link that keeps it "
            "connected; pick a multi-homed destination for Tlong"
        )
    served = {nbr: _sources_served(topo, destination, nbr) for nbr in candidates}
    top = max(served.values())
    primary = sorted(nbr for nbr, count in served.items() if count == top)
    return (destination, rng.choice(primary))


def provider_load(topo: Topology, destination: int) -> dict:
    """Sources served by each of the destination's providers.

    ``{provider: count}`` where count is the number of sources whose
    shortest path to ``destination`` exits through that provider.  The
    dominance of the top provider predicts how disruptive failing its link
    is: a destination whose primary serves nearly everything behaves like
    the B-Clique's edge link, while balanced providers fail over silently.
    """
    return {
        provider: _sources_served(topo, destination, provider)
        for provider in topo.neighbors(destination)
    }


def _sources_served(topo: Topology, destination: int, provider: int) -> int:
    """How many sources reach ``destination`` with ``provider`` as last hop.

    Approximates the shortest-path decision: a source uses the provider
    closest to it (hop count, ties to the smaller provider id — the
    library's tie-break).
    """
    providers = topo.neighbors(destination)
    distance = {p: _bfs_distances(topo, p, skip=destination) for p in providers}
    count = 0
    for node in topo.nodes:
        if node == destination or node in providers:
            best = None
            if node in providers:
                best = node  # a provider reaches the destination directly
            if best == provider:
                count += 1
            continue
        best_key = None
        best_provider = None
        for p in providers:
            dist = distance[p].get(node)
            if dist is None:
                continue
            key = (dist, p)
            if best_key is None or key < best_key:
                best_key = key
                best_provider = p
        if best_provider == provider:
            count += 1
    return count


def _bfs_distances(topo: Topology, start: int, skip: int) -> dict:
    """Hop counts from ``start``, never routing through ``skip``."""
    distances = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in topo.neighbors(node):
                if nbr == skip or nbr in distances:
                    continue
                distances[nbr] = distances[node] + 1
                nxt.append(nbr)
        frontier = nxt
    return distances
