"""Advanced protocol scenarios beyond the paper's single-event runs:
multiple prefixes, anycast origination, link flaps, and cascading failures.
"""

import pytest

from repro.bgp import AsPath, BgpConfig, BgpSpeaker
from repro.core import find_loops, is_loop_free, loop_timeline
from repro.dataplane import FibChangeLog, ForwardingGraph, PacketFate, walk
from repro.engine import RandomStreams, Scheduler
from repro.net import Network
from repro.topology import Topology, chain, clique, grid, ring

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))


def build(topo, seed=5, config=FAST):
    scheduler = Scheduler()
    streams = RandomStreams(seed)
    log = FibChangeLog()
    network = Network(
        topo,
        scheduler,
        lambda nid, sch: BgpSpeaker(
            nid, sch, config=config, streams=streams, fib_listener=log.record
        ),
    )
    return network, scheduler, log


def graph_for(network, prefix):
    graph = ForwardingGraph()
    for nid, node in network.nodes.items():
        graph.set_next_hop(nid, node.fib.get(prefix))
    return graph


class TestMultiplePrefixes:
    def test_two_prefixes_converge_independently(self):
        network, scheduler, _log = build(clique(5))
        network.node(0).originate("alpha")
        network.node(4).originate("beta")
        network.start()
        scheduler.run(max_events=200_000)
        for nid, node in network.nodes.items():
            node.check_invariants()
            if nid != 0:
                assert node.next_hop("alpha") == 0
            if nid != 4:
                assert node.next_hop("beta") == 4

    def test_failure_of_one_prefix_leaves_other_untouched(self):
        network, scheduler, log = build(chain(4))
        network.node(0).originate("alpha")
        network.node(3).originate("beta")
        network.start()
        scheduler.run(max_events=200_000)
        scheduler.call_at(
            scheduler.now + 0.5,
            lambda: network.node(0).withdraw_origin("alpha"),
        )
        scheduler.run(max_events=200_000)
        for nid, node in network.nodes.items():
            assert node.best_route("alpha") is None
            if nid != 3:
                assert node.next_hop("beta") == nid + 1

    def test_per_prefix_mrai_timers_are_independent(self):
        """Updates for prefix alpha must not be held behind beta's timer."""
        network, scheduler, _log = build(clique(4))
        network.node(0).originate("alpha")
        network.node(0).originate("beta")
        network.start()
        scheduler.run(max_events=200_000)
        # Withdraw both at once; both converge (no cross-prefix blocking).
        at = scheduler.now + 0.5
        scheduler.call_at(at, lambda: network.node(0).withdraw_origin("alpha"))
        scheduler.call_at(at, lambda: network.node(0).withdraw_origin("beta"))
        scheduler.run(max_events=200_000)
        for node in network.nodes.values():
            assert node.best_route("alpha") is None
            assert node.best_route("beta") is None
            node.check_invariants()


class TestAnycast:
    def test_two_origins_split_the_network(self):
        """Anycast: both ends of a chain originate the same prefix; each
        node routes to its nearer instance."""
        network, scheduler, _log = build(chain(5))
        network.node(0).originate("any")
        network.node(4).originate("any")
        network.start()
        scheduler.run(max_events=200_000)
        graph = graph_for(network, "any")
        assert graph.delivers_locally(0)
        assert graph.delivers_locally(4)
        assert walk(graph, 1).fate is PacketFate.DELIVERED
        assert walk(graph, 3).fate is PacketFate.DELIVERED
        assert network.node(1).next_hop("any") == 0
        assert network.node(3).next_hop("any") == 4

    def test_losing_one_anycast_instance_fails_over_to_the_other(self):
        network, scheduler, _log = build(chain(5))
        network.node(0).originate("any")
        network.node(4).originate("any")
        network.start()
        scheduler.run(max_events=200_000)
        scheduler.call_at(
            scheduler.now + 0.5, lambda: network.node(0).withdraw_origin("any")
        )
        scheduler.run(max_events=200_000)
        graph = graph_for(network, "any")
        for source in (0, 1, 2, 3):
            assert walk(graph, source).fate is PacketFate.DELIVERED
        assert network.node(0).next_hop("any") == 1  # old origin now a client


class TestFlaps:
    def test_flap_restores_original_routing(self):
        network, scheduler, _log = build(grid(2, 3))
        network.node(0).originate("dest")
        network.start()
        scheduler.run(max_events=200_000)
        before = graph_for(network, "dest")
        down_at = scheduler.now + 0.5
        network.schedule_link_failure(0, 1, at=down_at)
        network.schedule_link_restore(0, 1, at=down_at + 5.0)
        scheduler.run(max_events=200_000)
        after = graph_for(network, "dest")
        assert after == before
        for node in network.nodes.values():
            node.check_invariants()

    def test_flap_during_convergence_still_converges(self):
        """A second failure injected mid-convergence (the re-convergence
        case the paper leaves implicit) must still quiesce loop-free."""
        network, scheduler, log = build(clique(6))
        network.node(0).originate("dest")
        network.start()
        scheduler.run(max_events=200_000)
        t0 = scheduler.now + 0.5
        scheduler.call_at(t0, lambda: network.node(0).withdraw_origin("dest"))
        # Mid-convergence, fail a bystander link too.
        network.schedule_link_failure(2, 3, at=t0 + 0.8)
        scheduler.run(max_events=500_000)
        for node in network.nodes.values():
            node.check_invariants()
            assert node.best_route("dest") is None

    def test_reorigination_after_tdown(self):
        network, scheduler, _log = build(ring(5))
        origin = network.node(0)
        origin.originate("dest")
        network.start()
        scheduler.run(max_events=200_000)
        t0 = scheduler.now + 0.5
        scheduler.call_at(t0, lambda: origin.withdraw_origin("dest"))
        scheduler.run(max_events=200_000)
        scheduler.call_at(scheduler.now + 1.0, lambda: origin.originate("dest"))
        scheduler.run(max_events=200_000)
        graph = graph_for(network, "dest")
        assert is_loop_free(graph)
        for source in range(5):
            assert walk(graph, source).fate is PacketFate.DELIVERED


class TestCascadingFailures:
    def test_sequential_link_failures_converge_loop_free(self):
        network, scheduler, _log = build(grid(3, 3))
        network.node(0).originate("dest")
        network.start()
        scheduler.run(max_events=200_000)
        base = scheduler.now
        network.schedule_link_failure(0, 1, at=base + 0.5)
        network.schedule_link_failure(1, 4, at=base + 1.0)
        network.schedule_link_failure(3, 4, at=base + 1.5)
        scheduler.run(max_events=500_000)
        graph = graph_for(network, "dest")
        assert is_loop_free(graph)
        for node in network.nodes.values():
            node.check_invariants()
            # Grid stays connected after those three failures.
            assert node.best_route("dest") is not None
