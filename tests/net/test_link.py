"""Unit tests for repro.net.link."""

import pytest

from repro.errors import NetworkError
from repro.net import Link
from repro.telemetry import TelemetryProbe


@pytest.fixture
def boxes():
    return {"u": [], "v": []}


@pytest.fixture
def link(scheduler, boxes):
    return Link(
        scheduler, 1, 2, 0.1,
        deliver_to_u=lambda src, msg: boxes["u"].append((src, msg)),
        deliver_to_v=lambda src, msg: boxes["v"].append((src, msg)),
    )


class TestBasics:
    def test_endpoints_normalized(self, scheduler, boxes):
        link = Link(
            scheduler, 9, 3, 0.1,
            deliver_to_u=lambda s, m: boxes["u"].append((s, m)),
            deliver_to_v=lambda s, m: boxes["v"].append((s, m)),
        )
        assert link.endpoints == (3, 9)

    def test_send_both_directions(self, scheduler, link, boxes):
        link.send(1, "to-v")
        link.send(2, "to-u")
        scheduler.run()
        assert boxes["v"] == [(1, "to-v")]
        assert boxes["u"] == [(2, "to-u")]

    def test_swapped_constructor_order_still_delivers_correctly(self, scheduler):
        """deliver_to_u must follow the *ids*, not the argument order."""
        log = []
        link = Link(
            scheduler, 7, 2, 0.1,
            deliver_to_u=lambda s, m: log.append(("at-7", m)),
            deliver_to_v=lambda s, m: log.append(("at-2", m)),
        )
        link.send(7, "hello-2")
        scheduler.run()
        assert log == [("at-2", "hello-2")]

    def test_channel_from_unknown_node(self, link):
        with pytest.raises(NetworkError):
            link.channel_from(42)

    def test_self_link_rejected(self, scheduler):
        with pytest.raises(NetworkError):
            Link(scheduler, 1, 1, 0.1, lambda s, m: None, lambda s, m: None)


class TestFailure:
    def test_take_down_both_directions(self, scheduler, link, boxes):
        link.send(1, "a")
        link.send(2, "b")
        assert link.take_down() == 2
        assert not link.up
        scheduler.run()
        assert boxes == {"u": [], "v": []}

    def test_bring_up(self, scheduler, link, boxes):
        link.take_down()
        link.bring_up()
        assert link.up
        link.send(1, "x")
        scheduler.run()
        assert boxes["v"] == [(1, "x")]

    def test_messages_carried_counter(self, scheduler, link):
        probe = TelemetryProbe()
        scheduler.observe(probe)
        link.send(1, "a")
        link.send(2, "b")
        scheduler.run()
        assert probe.snapshot().counter("net.messages_delivered.str") == 2
