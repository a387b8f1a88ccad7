"""Tests for silent link failures at the network layer."""

import pytest

from repro.net import LinkFailure, Network, Node
from repro.topology import chain


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


@pytest.fixture
def net(scheduler):
    return Network(chain(3), scheduler, lambda nid, sch: Recorder(nid, sch))


class TestSilentFailure:
    def test_no_notifications(self, net):
        net.fail_link(0, 1, silent=True)
        assert net.node(0).events == []
        assert net.node(1).events == []

    def test_link_still_physically_down(self, net):
        net.fail_link(0, 1, silent=True)
        assert not net.link_is_up(0, 1)
        assert net.node(1).neighbors == [2]

    def test_in_flight_messages_still_dropped(self, scheduler, net):
        net.node(0).send(1, "doomed")
        net.fail_link(0, 1, silent=True)
        scheduler.run()
        assert net.node(1).inbox == []

    def test_silent_is_idempotent_and_mixable(self, net):
        net.fail_link(0, 1, silent=True)
        net.fail_link(0, 1, silent=False)  # already down: no late notification
        assert net.node(0).events == []

    def test_restore_after_silent_failure_notifies(self, net):
        net.fail_link(0, 1, silent=True)
        net.restore_link(0, 1)
        assert ("up", 1) in net.node(0).events
        assert ("up", 0) in net.node(1).events

    def test_scheduled_silent_failure(self, scheduler, net):
        scheduler.call_at(
            2.0, lambda: net.fail_link(0, 1, silent=True), priority=0, name="fail:0-1"
        )
        scheduler.run()
        assert not net.link_is_up(0, 1)
        assert net.node(0).events == []

    def test_scheduled_loud_failure_still_notifies(self, scheduler, net):
        LinkFailure(0, 1, at=2.0).inject(net)
        scheduler.run()
        assert ("down", 1) in net.node(0).events
