"""Behavioral tests for the BGP speaker.

These run small real simulations and assert on routing outcomes, including
the paper's Figure 1 transient-loop scenario.
"""

import pytest

from repro.bgp import Announcement, AsPath
from repro.core import is_loop_free, loop_timeline
from repro.dataplane import ForwardingGraph
from repro.errors import ProtocolError
from repro.net import LinkFailure, LinkRestore
from repro.topology import Topology, chain, clique

PREFIX = "dest"


def figure1_topology() -> Topology:
    """The topology of the paper's Figure 1.

    Destination hangs off node 0; node 4 has the direct link to it; nodes 5
    and 6 sit behind 4 and peer with each other; 6 also has the long backup
    chain 6-3-2-1-0.
    """
    return Topology.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 6), (4, 5), (4, 6), (5, 6), (0, 4)],
        name="figure-1",
    )


def originate_and_converge(network, scheduler, origin=0, prefix=PREFIX):
    speaker = network.node(origin)
    speaker.originate(prefix)
    network.start()
    scheduler.run(max_events=200_000)
    return scheduler.now


def speakers(network):
    return {nid: node for nid, node in network.nodes.items()}


def forwarding_graph(network, prefix=PREFIX) -> ForwardingGraph:
    graph = ForwardingGraph()
    for nid, node in network.nodes.items():
        graph.set_next_hop(nid, node.fib.get(prefix))
    return graph


class TestWarmupConvergence:
    def test_chain_converges_to_line_of_next_hops(
        self, scheduler, bgp_network_factory
    ):
        network, _log = bgp_network_factory(chain(4))
        originate_and_converge(network, scheduler)
        assert network.node(0).next_hop(PREFIX) == 0  # local delivery
        assert network.node(1).next_hop(PREFIX) == 0
        assert network.node(2).next_hop(PREFIX) == 1
        assert network.node(3).next_hop(PREFIX) == 2

    def test_clique_all_nodes_use_direct_route(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(clique(5))
        originate_and_converge(network, scheduler)
        for nid in range(1, 5):
            assert network.node(nid).next_hop(PREFIX) == 0

    def test_paths_match_paper_notation(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(figure1_topology())
        originate_and_converge(network, scheduler)
        assert network.node(4).full_path(PREFIX) == AsPath((4, 0))
        assert network.node(5).full_path(PREFIX) == AsPath((5, 4, 0))
        assert network.node(6).full_path(PREFIX) == AsPath((6, 4, 0))

    def test_invariants_hold_after_warmup(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(clique(5))
        originate_and_converge(network, scheduler)
        for node in network.nodes.values():
            node.check_invariants()

    def test_forwarding_graph_loop_free_after_warmup(
        self, scheduler, bgp_network_factory
    ):
        network, _log = bgp_network_factory(clique(6))
        originate_and_converge(network, scheduler)
        assert is_loop_free(forwarding_graph(network))


class TestFigure1TransientLoop:
    """The paper's canonical example, §3.1: failing link [4 0] must create a
    transient 5<->6 forwarding loop, which resolves via poison reverse."""

    @pytest.fixture
    def converged_fig1(self, scheduler, bgp_network_factory):
        network, log = bgp_network_factory(figure1_topology())
        originate_and_converge(network, scheduler)
        return network, log

    def test_loop_forms_and_resolves(self, scheduler, converged_fig1):
        network, log = converged_fig1
        failure_time = scheduler.now + 1.0
        LinkFailure(0, 4, at=failure_time).inject(network)
        scheduler.run(max_events=200_000)

        intervals = loop_timeline(log, PREFIX, failure_time, scheduler.now)
        cycles = {interval.cycle for interval in intervals}
        assert (5, 6) in cycles, f"expected the 5<->6 loop, saw {cycles}"

    def test_final_routes_use_backup_chain(self, scheduler, converged_fig1):
        network, _log = converged_fig1
        LinkFailure(0, 4, at=scheduler.now + 1.0).inject(network)
        scheduler.run(max_events=200_000)
        assert network.node(6).full_path(PREFIX) == AsPath((6, 3, 2, 1, 0))
        assert network.node(5).full_path(PREFIX) == AsPath((5, 6, 3, 2, 1, 0))
        assert network.node(4).full_path(PREFIX) == AsPath((4, 6, 3, 2, 1, 0))

    def test_final_forwarding_is_loop_free(self, scheduler, converged_fig1):
        network, _log = converged_fig1
        LinkFailure(0, 4, at=scheduler.now + 1.0).inject(network)
        scheduler.run(max_events=200_000)
        assert is_loop_free(forwarding_graph(network))
        for node in network.nodes.values():
            node.check_invariants()


class TestTdown:
    def test_withdraw_origin_leaves_network_route_free(
        self, scheduler, bgp_network_factory
    ):
        network, _log = bgp_network_factory(clique(5))
        originate_and_converge(network, scheduler)
        origin = network.node(0)
        scheduler.call_at(scheduler.now + 1.0, lambda: origin.withdraw_origin(PREFIX))
        scheduler.run(max_events=200_000)
        for node in network.nodes.values():
            assert node.best_route(PREFIX) is None
            assert node.next_hop(PREFIX) is None
            node.check_invariants()

    def test_withdraw_unoriginated_prefix_raises(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(clique(3))
        with pytest.raises(ProtocolError):
            network.node(1).withdraw_origin(PREFIX)

    def test_poison_reverse_blocks_origin_from_looping_back(
        self, scheduler, bgp_network_factory
    ):
        """After Tdown, node 0 must never adopt a path through its peers:
        every such path contains 0 and is poison-reversed away."""
        network, _log = bgp_network_factory(clique(4))
        originate_and_converge(network, scheduler)
        origin = network.node(0)
        t_down = scheduler.now + 1.0
        scheduler.call_at(t_down, lambda: origin.withdraw_origin(PREFIX))
        scheduler.run(max_events=200_000)
        assert origin.best_route(PREFIX) is None
        # What poison reverse discarded: announcements to 0 through 0.
        assert any(
            record.time >= t_down
            and record.dst == 0
            and isinstance(record.message, Announcement)
            and 0 in record.message.path
            for record in network.trace
        )


class TestLinkDownHandling:
    def test_link_down_purges_neighbor_state(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(chain(3))
        originate_and_converge(network, scheduler)
        node2 = network.node(2)
        assert node2.best_route(PREFIX) is not None
        network.fail_link(1, 2)
        scheduler.run(max_events=200_000)
        assert node2.best_route(PREFIX) is None
        assert node2.adj_rib_in.get(1, PREFIX) is None

    def test_stale_delivery_from_dead_session_ignored(
        self, scheduler, bgp_network_factory
    ):
        """A message already *delivered* but not yet processed when the link
        dies must not resurrect state from the dead neighbor."""
        network, _log = bgp_network_factory(chain(2))
        node1 = network.node(1)
        # Hand-deliver an announcement, then kill the link before the
        # processing delay elapses.
        node1.deliver(0, Announcement(prefix=PREFIX, path=AsPath((0,))))
        network.fail_link(0, 1)
        scheduler.run(max_events=10_000)
        assert node1.best_route(PREFIX) is None

    def test_link_restore_readvertises(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(chain(3))
        originate_and_converge(network, scheduler)
        network.fail_link(1, 2)
        scheduler.run(max_events=200_000)
        restore_at = scheduler.now + 1.0
        LinkRestore(1, 2, at=restore_at).inject(network)
        scheduler.run(max_events=200_000)
        assert network.node(2).full_path(PREFIX) == AsPath((2, 1, 0))


class TestDuplicateSuppression:
    def test_route_advertised_once(self, scheduler, bgp_network_factory):
        """"The route to each destination is advertised only once": warmup on
        a chain sends exactly one announcement per (node, downstream peer)."""
        network, _log = bgp_network_factory(chain(3))
        originate_and_converge(network, scheduler)
        announcements = network.trace.records(
            lambda r: isinstance(r.message, Announcement)
        )
        pair_counts = {}
        for record in announcements:
            key = (record.src, record.dst)
            pair_counts[key] = pair_counts.get(key, 0) + 1
        # 0->1, 1->2 carry the route forward; 1->0 and 2->1 echo the path
        # back (poison-reversed at the receiver); each exactly once.
        assert all(count == 1 for count in pair_counts.values()), pair_counts


class TestMessageValidation:
    def test_announcement_head_must_match_sender(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(chain(2))
        node1 = network.node(1)
        node1.deliver(0, Announcement(prefix=PREFIX, path=AsPath((9, 0))))
        with pytest.raises(ProtocolError, match="does not match sender"):
            scheduler.run(max_events=10)

    def test_unexpected_message_type_rejected(self, scheduler, bgp_network_factory):
        network, _log = bgp_network_factory(chain(2))
        network.node(1).deliver(0, "garbage")
        with pytest.raises(ProtocolError, match="unexpected message"):
            scheduler.run(max_events=10)
