"""Unit tests for repro.net.node."""

import pytest

from repro.errors import NetworkError
from repro.net import Network, Node
from repro.topology import chain


class EchoNode(Node):
    """Test node that logs processed messages and link events."""

    def __init__(self, node_id, scheduler, service_time=lambda: 0.2):
        super().__init__(node_id, scheduler, service_time)
        self.log = []

    def handle_message(self, src, message):
        self.log.append((self.scheduler.now, src, message))

    def on_link_down(self, neighbor):
        self.log.append(("down", neighbor))

    def on_link_up(self, neighbor):
        self.log.append(("up", neighbor))


@pytest.fixture
def net(scheduler):
    return Network(chain(3), scheduler, lambda nid, sch: EchoNode(nid, sch))


class TestProcessingDelay:
    def test_handler_runs_after_service_time(self, scheduler, net):
        net.node(0).send(1, "ping")
        scheduler.run()
        node1 = net.node(1)
        (when, src, msg), = node1.log
        assert src == 0 and msg == "ping"
        assert when == pytest.approx(0.002 + 0.2)  # link delay + service

    def test_messages_serialized_at_receiver(self, scheduler, net):
        net.node(0).send(1, "a")
        net.node(2).send(1, "b")
        scheduler.run()
        times = [entry[0] for entry in net.node(1).log]
        assert times == [pytest.approx(0.202), pytest.approx(0.402)]

    def test_messages_received_counter(self, scheduler, net):
        net.node(0).send(1, "a")
        net.node(0).send(1, "b")
        scheduler.run()
        assert net.node(1).messages_received == 2


class TestWiring:
    def test_neighbors_via_network(self, net):
        assert net.node(1).neighbors == [0, 2]

    def test_send_to_non_neighbor_raises(self, net):
        with pytest.raises(NetworkError):
            net.node(0).send(2, "x")

    def test_double_attach_rejected(self, scheduler, net):
        with pytest.raises(NetworkError, match="already attached"):
            net.node(0).attach(net, {})

    def test_detached_node_has_no_network(self, scheduler):
        node = EchoNode(9, scheduler)
        with pytest.raises(NetworkError, match="not attached"):
            node.network

    def test_base_handle_message_is_abstract(self, scheduler):
        node = Node(1, scheduler)
        with pytest.raises(NotImplementedError):
            node.handle_message(0, "x")

    def test_link_is_up_helper(self, net):
        assert net.node(0).link_is_up(1)
        assert not net.node(0).link_is_up(2)  # not adjacent
        net.fail_link(0, 1)
        assert not net.node(0).link_is_up(1)
