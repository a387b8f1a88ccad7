"""Tests for the link-state routing substrate."""

import pytest

from repro.core import is_loop_free, loop_timeline
from repro.dataplane import FibChangeLog, ForwardingGraph, PacketFate, walk
from repro.engine import RandomStreams
from repro.errors import ProtocolError
from repro.ls import LinkStateSpeaker, make_lsa
from repro.net import LinkFailure, Network
from repro.topology import chain, clique, grid, ring

PREFIX = "dest"


def make_ls_network(scheduler, topo, owner=0, seed=6, fib_log=None,
                    processing_delay=(0.01, 0.05)):
    streams = RandomStreams(seed)
    destinations = {PREFIX: owner}

    def factory(nid, sch):
        return LinkStateSpeaker(
            nid,
            sch,
            streams,
            destinations=destinations,
            processing_delay=processing_delay,
            fib_listener=fib_log.record if fib_log is not None else None,
        )

    return Network(topo, scheduler, factory)


def forwarding_graph(network):
    graph = ForwardingGraph()
    for nid, node in network.nodes.items():
        graph.set_next_hop(nid, node.fib.get(PREFIX))
    return graph


class TestLsa:
    def test_freshness(self):
        old = make_lsa(1, 3, [2, 4])
        new = make_lsa(1, 4, [2])
        assert new.newer_than(old)
        assert not old.newer_than(new)

    def test_cross_origin_comparison_rejected(self):
        with pytest.raises(ValueError):
            make_lsa(1, 1, []).newer_than(make_lsa(2, 1, []))

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValueError):
            make_lsa(1, 1, [1, 2])

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            make_lsa(1, -1, [])


class TestConvergence:
    @pytest.mark.parametrize("topo_factory", [
        lambda: chain(5),
        lambda: ring(6),
        lambda: clique(5),
        lambda: grid(3, 3),
    ])
    def test_all_nodes_reach_destination(self, scheduler, topo_factory):
        topo = topo_factory()
        network = make_ls_network(scheduler, topo)
        network.start()
        scheduler.run(max_events=500_000)
        graph = forwarding_graph(network)
        assert is_loop_free(graph)
        for nid in topo.nodes:
            assert walk(graph, nid).fate is PacketFate.DELIVERED, nid

    def test_shortest_paths_with_id_tie_break(self, scheduler):
        network = make_ls_network(scheduler, ring(6))
        network.start()
        scheduler.run(max_events=500_000)
        assert network.node(1).next_hop(PREFIX) == 0
        assert network.node(5).next_hop(PREFIX) == 0
        # Node 3 is equidistant both ways (3 hops): smaller first hop wins.
        assert network.node(3).next_hop(PREFIX) == 2

    def test_owner_delivers_locally(self, scheduler):
        network = make_ls_network(scheduler, chain(3))
        network.start()
        scheduler.run(max_events=500_000)
        assert network.node(0).next_hop(PREFIX) == 0

    def test_unexpected_message_rejected(self, scheduler):
        network = make_ls_network(scheduler, chain(2))
        network.node(1).deliver(0, "not-an-lsa")
        with pytest.raises(ProtocolError):
            scheduler.run(max_events=10)


class TestFailureResponse:
    def test_reroutes_after_failure(self, scheduler):
        network = make_ls_network(scheduler, ring(5))
        network.start()
        scheduler.run(max_events=500_000)
        assert network.node(1).next_hop(PREFIX) == 0
        network.fail_link(0, 1)
        scheduler.run(max_events=500_000)
        assert network.node(1).next_hop(PREFIX) == 2
        graph = forwarding_graph(network)
        assert is_loop_free(graph)
        for nid in range(5):
            assert walk(graph, nid).fate is PacketFate.DELIVERED

    def test_partition_clears_routes(self, scheduler):
        network = make_ls_network(scheduler, chain(3))
        network.start()
        scheduler.run(max_events=500_000)
        network.fail_link(0, 1)
        scheduler.run(max_events=500_000)
        assert network.node(2).next_hop(PREFIX) is None
        assert network.node(1).next_hop(PREFIX) is None

    def test_recovery_resyncs_database(self, scheduler):
        network = make_ls_network(scheduler, chain(3))
        network.start()
        scheduler.run(max_events=500_000)
        network.fail_link(0, 1)
        scheduler.run(max_events=500_000)
        network.restore_link(0, 1)
        scheduler.run(max_events=500_000)
        assert network.node(2).next_hop(PREFIX) == 1

    def test_transient_loop_can_form_during_reconvergence(self, scheduler):
        """§2's observation: link-state transient loops exist (Hengartner).

        On a ring with slow message processing, the node adjacent to the
        failure reroutes before distant nodes hear the new LSAs — briefly
        producing a 2-node loop.
        """
        log = FibChangeLog()
        network = make_ls_network(
            scheduler, ring(6), fib_log=log, processing_delay=(0.3, 0.5)
        )
        network.start()
        scheduler.run(max_events=500_000)
        failure_time = scheduler.now + 1.0
        LinkFailure(0, 1, at=failure_time).inject(network)
        scheduler.run(max_events=500_000)
        intervals = loop_timeline(log, PREFIX, failure_time, scheduler.now)
        assert intervals, "expected a transient loop during LS reconvergence"
        # ... but they are short: bounded by flooding + processing, far
        # below BGP's MRAI-scale loops.
        assert max(i.duration for i in intervals) < 5.0
        assert is_loop_free(forwarding_graph(network))
