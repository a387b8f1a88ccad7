"""Property tests for Gao-Rexford routing on random tiered topologies."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp import (
    BgpConfig,
    BgpSpeaker,
    GaoRexfordPolicy,
    Relationship,
    is_valley_free,
    relationships_from_tiers,
)
from repro.engine import RandomStreams, Scheduler
from repro.net import Network
from repro.topology import Tier, Topology

PREFIX = "dest"


@st.composite
def tiered_topologies(draw):
    """Random 3-tier AS graphs: meshed core, homed transit, homed stubs."""
    num_core = draw(st.integers(min_value=2, max_value=3))
    num_transit = draw(st.integers(min_value=1, max_value=3))
    num_stub = draw(st.integers(min_value=1, max_value=4))
    topo = Topology("tiered")
    tiers = {}
    core = list(range(num_core))
    # The core must be a full peering mesh: under Gao-Rexford rules a peer
    # route is never re-exported to another peer, so a chain-only core
    # would (correctly!) leave far-side tier-1s unreachable.
    for node in core:
        tiers[node] = Tier.CORE
        topo.add_node(node)
        for other in core[:node]:
            topo.add_edge(node, other)
    transit = list(range(num_core, num_core + num_transit))
    for node in transit:
        tiers[node] = Tier.TRANSIT
        provider = draw(st.sampled_from(core + [t for t in transit if t < node]))
        topo.add_edge(node, provider)
    stubs = list(range(num_core + num_transit, num_core + num_transit + num_stub))
    for node in stubs:
        tiers[node] = Tier.STUB
        topo.add_edge(node, draw(st.sampled_from(transit)))
    # Optional extra peering/homing edges.
    extras = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(topo.nodes)),
                st.sampled_from(sorted(topo.nodes)),
            ),
            max_size=3,
        )
    )
    for u, v in extras:
        if u != v and not topo.has_edge(u, v) and Tier.RANK[tiers[u]] <= Tier.RANK[tiers[v]]:
            topo.add_edge(u, v)
    return topo, tiers


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiered_topologies(), st.integers(min_value=0, max_value=50))
def test_gao_rexford_converges_valley_free_and_reachable(topo_tiers, seed):
    topo, tiers = topo_tiers
    relationships = relationships_from_tiers(topo, tiers)
    scheduler = Scheduler()
    streams = RandomStreams(seed)
    config = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
    network = Network(
        topo,
        scheduler,
        lambda nid, sch: BgpSpeaker(
            nid, sch, config=config, streams=streams,
            policy=GaoRexfordPolicy(relationships[nid]),
        ),
    )
    origin = max(topo.nodes)  # the last stub (or deepest node) originates
    network.node(origin).originate(PREFIX)
    network.start()
    scheduler.run(max_events=500_000)

    for nid, node in network.nodes.items():
        node.check_invariants()
        path = node.full_path(PREFIX)
        # A stub origination is announced upward to everyone: with the
        # graph connected through provider chains, all nodes must reach it.
        assert path is not None, f"node {nid} has no route to the stub"
        assert is_valley_free(list(path), relationships)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiered_topologies())
def test_relationships_are_antisymmetric_and_complete(topo_tiers):
    topo, tiers = topo_tiers
    relationships = relationships_from_tiers(topo, tiers)
    for u, v, _d in topo.edges():
        a, b = relationships[u][v], relationships[v][u]
        if a is Relationship.PEER:
            assert b is Relationship.PEER
        elif a is Relationship.CUSTOMER:
            assert b is Relationship.PROVIDER
        else:
            assert b is Relationship.CUSTOMER
