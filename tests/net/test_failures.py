"""Unit tests for repro.net.failures."""

import pytest

from repro.errors import ConfigError, NetworkError
from repro.net import (
    LinkFailure,
    LinkFlap,
    LinkRestore,
    Network,
    Node,
    OriginWithdrawal,
)
from repro.topology import chain


class Quiet(Node):
    """A node that ignores messages and records its origin withdrawals."""

    def __init__(self, node_id, scheduler):
        super().__init__(node_id, scheduler)
        self.withdrawn = []

    def handle_message(self, src, message):
        pass

    def withdraw_origin(self, prefix):
        self.withdrawn.append((self.scheduler.now, prefix))


@pytest.fixture
def net(scheduler):
    return Network(chain(3), scheduler, lambda nid, sch: Quiet(nid, sch))


class TestInjectors:
    def test_link_failure_fires(self, scheduler, net):
        LinkFailure(0, 1, at=2.0).inject(net)
        scheduler.run()
        assert not net.link_is_up(0, 1)

    def test_link_restore_fires(self, scheduler, net):
        LinkFailure(0, 1, at=1.0).inject(net)
        LinkRestore(0, 1, at=2.0).inject(net)
        scheduler.run()
        assert net.link_is_up(0, 1)

    def test_origin_withdrawal_runs_action(self, scheduler, net):
        OriginWithdrawal(node=0, prefix="dest", at=3.0).inject(net)
        scheduler.run()
        assert net.node(0).withdrawn == [(3.0, "dest")]

    def test_origin_withdrawal_unknown_node(self, net):
        with pytest.raises(NetworkError):
            OriginWithdrawal(node=42, prefix="dest", at=1.0).inject(net)


class TestSchedule:
    def test_flap(self, scheduler, net):
        LinkFlap(0, 1, at=1.0, period=2.0).inject(net)
        scheduler.run(until=1.5)
        assert not net.link_is_up(0, 1)
        scheduler.run()
        assert net.link_is_up(0, 1)

    def test_flap_rejects_bad_window(self):
        with pytest.raises(ConfigError, match="flap_period"):
            LinkFlap(0, 1, at=1.0, period=-2.0)
