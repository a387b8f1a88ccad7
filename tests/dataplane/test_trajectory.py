"""Unit tests for the event-driven packet forwarder."""

import pytest

from repro.dataplane import CbrSource, PacketForwarder
from repro.errors import AnalysisError
from repro.topology import chain, ring


class TestForwarding:
    def make_forwarder(self, scheduler, topo, fib):
        return PacketForwarder(scheduler, topo, lambda node: fib.get(node), ttl=8)

    def test_delivery_through_chain(self, scheduler):
        topo = chain(3)
        fib = {0: 0, 1: 0, 2: 1}
        forwarder = self.make_forwarder(scheduler, topo, fib)
        forwarder.launch([CbrSource(node=2, rate=10.0)], 0.0, 1.0)
        scheduler.run()
        assert forwarder.report.packets_sent == 10
        assert forwarder.report.delivered == 10

    def test_no_route_drop(self, scheduler):
        topo = chain(3)
        fib = {0: 0, 2: 1}  # node 1 has no route
        forwarder = self.make_forwarder(scheduler, topo, fib)
        forwarder.launch([CbrSource(node=2, rate=10.0)], 0.0, 0.5)
        scheduler.run()
        assert forwarder.report.dropped_no_route == 5

    def test_ttl_exhaustion_in_static_loop(self, scheduler):
        topo = ring(3)
        fib = {0: 1, 1: 2, 2: 0}
        forwarder = self.make_forwarder(scheduler, topo, fib)
        forwarder.launch([CbrSource(node=0, rate=10.0)], 0.0, 0.5)
        scheduler.run()
        report = forwarder.report
        assert report.ttl_exhaustions == 5
        assert report.first_exhaustion is not None

    def test_fib_change_mid_flight_redirects_packet(self, scheduler):
        """The forwarder consults the LIVE fib: flipping an entry while the
        packet is in flight changes its fate — the case the epoch evaluator
        cannot see."""
        topo = chain(3)
        fib = {0: 0, 1: None, 2: 1}
        forwarder = PacketForwarder(scheduler, topo, lambda n: fib.get(n), ttl=8)
        forwarder.launch([CbrSource(node=2, rate=1.0)], 0.0, 1.0)
        # Packet leaves node 2 at t=0, arrives at node 1 at t=0.002.
        scheduler.call_at(0.001, lambda: fib.__setitem__(1, 0))
        scheduler.run()
        assert forwarder.report.delivered == 1

    def test_dead_link_in_fib_drops_packet(self, scheduler):
        topo = chain(3)
        fib = {2: 0}  # node 2 points at non-adjacent node 0
        forwarder = self.make_forwarder(scheduler, topo, fib)
        forwarder.launch([CbrSource(node=2, rate=1.0)], 0.0, 1.0)
        scheduler.run()
        assert forwarder.report.dropped_no_route == 1


class TestGuards:
    def test_empty_window_rejected(self, scheduler):
        forwarder = PacketForwarder(scheduler, chain(2), lambda n: None)
        with pytest.raises(AnalysisError):
            forwarder.launch([CbrSource(node=1)], 1.0, 1.0)

    def test_double_launch_rejected(self, scheduler):
        forwarder = PacketForwarder(scheduler, chain(2), lambda n: None)
        forwarder.launch([CbrSource(node=1)], 0.0, 0.1)
        with pytest.raises(AnalysisError):
            forwarder.launch([CbrSource(node=1)], 0.0, 0.1)

    def test_report_before_launch_rejected(self, scheduler):
        forwarder = PacketForwarder(scheduler, chain(2), lambda n: None)
        with pytest.raises(AnalysisError):
            forwarder.report
