"""Tests for churn fault injection: session resets, node crashes, link flaps."""

import pytest

from repro.errors import ConfigError
from repro.net import (
    LinkFailure,
    LinkFlap,
    LinkRestore,
    Network,
    Node,
    NodeCrash,
    SessionReset,
)
from repro.topology import chain, clique


class Recorder(Node):
    def __init__(self, node_id, scheduler):
        super().__init__(node_id, scheduler)
        self.inbox = []
        self.events = []

    def handle_message(self, src, message):
        self.inbox.append((src, message))

    def on_link_down(self, neighbor):
        self.events.append(("down", neighbor))

    def on_link_up(self, neighbor):
        self.events.append(("up", neighbor))

    def on_session_reset(self, neighbor):
        self.events.append(("reset", neighbor))


@pytest.fixture
def net(scheduler):
    return Network(clique(4), scheduler, lambda nid, sch: Recorder(nid, sch))


class TestSessionReset:
    def test_both_endpoints_notified_link_stays_up(self, scheduler, net):
        net.reset_session(0, 1)
        assert ("reset", 1) in net.nodes[0].events
        assert ("reset", 0) in net.nodes[1].events
        assert net.link_is_up(0, 1)
        assert not any(kind == "down" for kind, _ in net.nodes[0].events)

    def test_in_flight_messages_destroyed_both_directions(self, scheduler, net):
        net.node(0).send(1, "a")
        net.node(1).send(0, "b")
        scheduler.call_at(0.001, lambda: net.reset_session(0, 1))
        scheduler.run()
        assert net.nodes[1].inbox == []
        assert net.nodes[0].inbox == []

    def test_injector_schedules_at_time(self, scheduler, net):
        SessionReset(0, 1, at=5.0).inject(net)
        scheduler.run()
        assert scheduler.now == pytest.approx(5.0)
        assert ("reset", 1) in net.nodes[0].events


class TestNodeCrash:
    def test_crash_takes_incident_links_down(self, scheduler, net):
        net.crash_node(1)
        assert not net.node_is_up(1)
        for other in (0, 2, 3):
            assert not net.link_is_up(1, other)
            assert ("down", 1) in net.nodes[other].events
        # Links not touching the crashed node stay up.
        assert net.link_is_up(0, 2)

    def test_silent_crash_suppresses_notifications(self, scheduler, net):
        net.crash_node(1, silent=True)
        for other in (0, 2, 3):
            assert not net.link_is_up(1, other)
            assert ("down", 1) not in net.nodes[other].events

    def test_crashed_node_loses_queued_and_in_flight_messages(self, scheduler, net):
        net.node(0).send(1, "doomed")
        scheduler.call_at(0.0005, lambda: net.crash_node(1))
        scheduler.run()
        assert net.nodes[1].inbox == []

    def test_deliveries_to_dead_node_are_dropped(self, scheduler, net):
        net.crash_node(1)
        # A message somehow delivered to a dead node is silently lost.
        net.nodes[1].deliver(0, "ghost")
        scheduler.run()
        assert net.nodes[1].inbox == []
        assert net.nodes[1].messages_dropped_dead == 1

    def test_crash_is_idempotent(self, scheduler, net):
        net.crash_node(1)
        net.crash_node(1)
        net.restart_node(1)
        assert net.node_is_up(1)
        for other in (0, 2, 3):
            assert net.link_is_up(1, other)

    def test_restart_restores_links_and_notifies(self, scheduler, net):
        net.crash_node(1)
        net.restart_node(1)
        assert net.node_is_up(1)
        for other in (0, 2, 3):
            assert net.link_is_up(1, other)
            assert ("up", 1) in net.nodes[other].events

    def test_restart_of_non_crashed_node_is_noop(self, scheduler, net):
        net.restart_node(2)
        assert net.node_is_up(2)
        assert net.nodes[0].events == []

    def test_link_failed_before_crash_stays_down_after_restart(self, scheduler, net):
        net.fail_link(1, 2)
        net.crash_node(1)
        net.restart_node(1)
        assert net.link_is_up(0, 1)
        assert not net.link_is_up(1, 2)  # independently failed; not ours

    def test_overlapping_crashes_hand_links_over(self, scheduler, net):
        """A link between two crashed nodes comes back only when the
        last-down endpoint restarts."""
        net.crash_node(1)
        net.crash_node(2)
        net.restart_node(1)
        assert not net.link_is_up(1, 2)  # 2 still dead
        assert net.link_is_up(0, 1)
        net.restart_node(2)
        assert net.link_is_up(1, 2)

    def test_injector_with_restart(self, scheduler, net):
        NodeCrash(1, at=2.0, restart_after=3.0).inject(net)
        scheduler.run(until=2.5)
        assert not net.node_is_up(1)
        scheduler.run(until=6.0)
        assert net.node_is_up(1)

    def test_injector_validates_restart_after(self):
        with pytest.raises(ConfigError, match="restart_after"):
            NodeCrash(1, at=2.0, restart_after=0.0)


class TestLinkFlap:
    def test_expands_to_ordered_failure_restore_pairs(self):
        flap = LinkFlap(0, 1, at=10.0, period=4.0, count=2)
        events = flap.events()
        assert events == [
            LinkFailure(0, 1, 10.0),
            LinkRestore(0, 1, 12.0),
            LinkFailure(0, 1, 14.0),
            LinkRestore(0, 1, 16.0),
        ]

    def test_injected_flap_toggles_link(self, scheduler, net):
        LinkFlap(0, 1, at=1.0, period=2.0, count=2).inject(net)
        assert net.link_is_up(0, 1)
        scheduler.run(until=1.5)
        assert not net.link_is_up(0, 1)
        scheduler.run(until=2.5)
        assert net.link_is_up(0, 1)
        scheduler.run(until=3.5)
        assert not net.link_is_up(0, 1)
        scheduler.run(until=10.0)
        assert net.link_is_up(0, 1)  # ends up

    def test_validation(self):
        with pytest.raises(ConfigError, match="flap_period"):
            LinkFlap(0, 1, at=0.0, period=0.0)
        with pytest.raises(ConfigError, match="flap_count"):
            LinkFlap(0, 1, at=0.0, period=1.0, count=0)
        with pytest.raises(ConfigError, match="duty"):
            LinkFlap(0, 1, at=0.0, period=1.0, duty=1.0)


class TestChainCrash:
    def test_partition_and_heal(self, scheduler):
        net = Network(chain(3), scheduler, lambda nid, sch: Recorder(nid, sch))
        net.crash_node(1)
        assert not net.link_is_up(0, 1)
        assert not net.link_is_up(1, 2)
        net.restart_node(1)
        net.node(0).send(1, "hello")
        scheduler.run()
        assert (0, "hello") in net.nodes[1].inbox
