"""Tests for the distance-vector baseline — the §2 comparison.

The key demonstrations: poison reverse stops 2-node loops, fails on 3-node
loops (counting to infinity), and the path-vector speaker avoids both.
"""

import pytest

from repro.dv import INFINITY_METRIC, DvUpdate, RipSpeaker
from repro.engine import RandomStreams, Scheduler
from repro.errors import ProtocolError
from repro.net import Network
from repro.topology import chain, ring

PREFIX = "dest"


def make_dv_network(scheduler, topo, seed=11, poison_reverse=True, fib_log=None):
    streams = RandomStreams(seed)

    def factory(nid, sch):
        listener = fib_log.record if fib_log is not None else None
        return RipSpeaker(
            nid,
            sch,
            streams,
            processing_delay=(0.01, 0.05),
            poison_reverse=poison_reverse,
            fib_listener=listener,
        )

    return Network(topo, scheduler, factory)


def converge(network, scheduler, origin=0):
    network.node(origin).originate(PREFIX)
    network.start()
    scheduler.run(max_events=500_000)


def dv_updates(network):
    """DV updates sent so far, read from the message trace."""
    return network.trace.count(lambda record: record.kind == "DvUpdate")


class TestMessages:
    def test_metric_bounds(self):
        with pytest.raises(ValueError):
            DvUpdate(prefix=PREFIX, metric=-1)
        with pytest.raises(ValueError):
            DvUpdate(prefix=PREFIX, metric=INFINITY_METRIC + 1)

    def test_unreachable_flag(self):
        assert DvUpdate(PREFIX, INFINITY_METRIC).is_unreachable
        assert not DvUpdate(PREFIX, 3).is_unreachable


class TestConvergence:
    def test_chain_metrics(self, scheduler):
        network = make_dv_network(scheduler, chain(4))
        converge(network, scheduler)
        for nid in range(4):
            route = network.node(nid).route(PREFIX)
            assert route is not None
            assert route.metric == nid

    def test_next_hops_form_tree(self, scheduler):
        network = make_dv_network(scheduler, ring(5))
        converge(network, scheduler)
        assert network.node(1).next_hop(PREFIX) == 0
        assert network.node(4).next_hop(PREFIX) == 0

    def test_withdraw_unoriginated_raises(self, scheduler):
        network = make_dv_network(scheduler, chain(2))
        with pytest.raises(ProtocolError):
            network.node(1).withdraw_origin(PREFIX)


class TestPoisonReverse:
    def test_two_node_case_converges_to_unreachable(self, scheduler):
        """Chain 0-1-2 with poison reverse: withdrawing the origin must not
        count to infinity — node 2 never re-advertises to its next hop."""
        network = make_dv_network(scheduler, chain(3), poison_reverse=True)
        converge(network, scheduler)
        network.node(0).withdraw_origin(PREFIX)
        scheduler.run(max_events=500_000)
        assert network.node(1).route(PREFIX) is None
        assert network.node(2).route(PREFIX) is None

    def test_counting_to_infinity_without_poison_reverse(self, scheduler):
        """Without poison reverse the same event bounces metrics upward to
        the infinity ceiling before flushing — visibly more updates."""
        with_pr = Scheduler()
        network_pr = make_dv_network(with_pr, chain(3), poison_reverse=True)
        converge(network_pr, with_pr)
        network_pr.node(0).withdraw_origin(PREFIX)
        with_pr.run(max_events=500_000)

        without = Scheduler()
        network_plain = make_dv_network(without, chain(3), poison_reverse=False)
        converge(network_plain, without)
        network_plain.node(0).withdraw_origin(PREFIX)
        without.run(max_events=500_000)

        assert network_plain.node(2).route(PREFIX) is None
        updates_plain = dv_updates(network_plain)
        updates_pr = dv_updates(network_pr)
        assert updates_plain > updates_pr

    def test_three_node_loop_defeats_poison_reverse(self, scheduler):
        """§2's claim: split-horizon/poison-reverse "can only detect 2-node
        routing loops".  On a ring, a Tdown event lets stale metrics chase
        each other around the cycle (counting to infinity through a 3-node
        loop) even WITH poison reverse enabled."""
        network = make_dv_network(scheduler, ring(3), poison_reverse=True)
        converge(network, scheduler)
        before = dv_updates(network)
        network.node(0).withdraw_origin(PREFIX)
        scheduler.run(max_events=500_000)
        after = dv_updates(network)
        # Eventually consistent (metric ceiling), but only after the
        # counting-to-infinity churn: many more updates than the 2-node case.
        assert network.node(1).route(PREFIX) is None
        assert network.node(2).route(PREFIX) is None
        assert after - before > 6


class TestModes:
    def test_poison_reverse_sends_infinity_back(self, scheduler):
        network = make_dv_network(scheduler, chain(3), poison_reverse=True)
        converge(network, scheduler)
        poisoned = network.trace.records(
            lambda r: r.src == 1 and r.dst == 0 and r.message.is_unreachable
        )
        assert poisoned, "expected a poisoned advertisement toward the next hop"


class TestFibListener:
    def test_fib_changes_recorded(self, scheduler):
        from repro.dataplane import FibChangeLog

        log = FibChangeLog()
        network = make_dv_network(scheduler, chain(3), fib_log=log)
        converge(network, scheduler)
        final = log.snapshot_at(PREFIX, scheduler.now)
        assert final.next_hop(0) == 0
        assert final.next_hop(1) == 0
        assert final.next_hop(2) == 1
