"""Unit tests for repro.net.network."""

import pytest

from repro.errors import NetworkError
from repro.net import LinkFailure, Network, Node
from repro.topology import clique


class Recorder(Node):
    def __init__(self, node_id, scheduler):
        super().__init__(node_id, scheduler)
        self.inbox = []
        self.events = []
        self.started = False

    def start(self):
        self.started = True

    def handle_message(self, src, message):
        self.inbox.append((src, message))

    def on_link_down(self, neighbor):
        self.events.append(("down", neighbor))

    def on_link_up(self, neighbor):
        self.events.append(("up", neighbor))


@pytest.fixture
def net(scheduler):
    return Network(clique(4), scheduler, lambda nid, sch: Recorder(nid, sch))


class TestConstruction:
    def test_one_node_per_topology_node(self, net):
        assert sorted(net.nodes) == [0, 1, 2, 3]

    def test_one_link_per_topology_edge(self, net):
        assert len(net.links) == 6

    def test_factory_must_honor_node_id(self, scheduler):
        with pytest.raises(NetworkError, match="factory returned"):
            Network(clique(2), scheduler, lambda nid, sch: Recorder(nid + 1, sch))

    def test_unknown_node_lookup(self, net):
        with pytest.raises(NetworkError):
            net.node(99)

    def test_unknown_link_lookup(self, net):
        with pytest.raises(NetworkError):
            net.link(0, 99)


class TestMessaging:
    def test_send_records_trace(self, scheduler, net):
        net.node(0).send(1, "m")
        assert len(net.trace) == 1
        record = net.trace.records()[0]
        assert (record.src, record.dst, record.message) == (0, 1, "m")

    def test_send_over_down_link_raises(self, net):
        net.fail_link(0, 1)
        with pytest.raises(NetworkError, match="down"):
            net.node(0).send(1, "m")

    def test_total_messages(self, net):
        net.node(0).send(1, "a")
        net.node(1).send(2, "b")
        assert len(net.trace) == 2


class TestFailureInjection:
    def test_fail_link_notifies_both_ends(self, net):
        net.fail_link(0, 1)
        assert ("down", 1) in net.node(0).events
        assert ("down", 0) in net.node(1).events

    def test_fail_link_idempotent(self, net):
        net.fail_link(0, 1)
        net.fail_link(0, 1)
        assert net.node(0).events.count(("down", 1)) == 1

    def test_live_neighbors_reflect_failures(self, net):
        net.fail_link(0, 1)
        assert net.node(0).neighbors == [2, 3]

    def test_restore_link_notifies(self, net):
        net.fail_link(0, 1)
        net.restore_link(0, 1)
        assert ("up", 1) in net.node(0).events
        assert net.link_is_up(0, 1)

    def test_restore_up_link_is_noop(self, net):
        net.restore_link(0, 1)
        assert net.node(0).events == []

    def test_scheduled_failure_fires_at_time(self, scheduler, net):
        LinkFailure(0, 1, at=5.0).inject(net)
        assert net.link_is_up(0, 1)
        scheduler.run()
        assert not net.link_is_up(0, 1)

    def test_scheduled_failure_validates_link_eagerly(self, net):
        with pytest.raises(NetworkError):
            LinkFailure(0, 99, at=5.0).inject(net)

    def test_in_flight_messages_dropped_on_failure(self, scheduler, net):
        net.node(0).send(1, "doomed")
        net.fail_link(0, 1)
        scheduler.run()
        assert net.node(1).inbox == []


class TestLifecycle:
    def test_start_invokes_all_nodes(self, net):
        net.start()
        assert all(node.started for node in net.nodes.values())
