"""Tests for route-flap damping (RFC 2439)."""

import pytest

from repro.bgp import BgpConfig, DampingConfig, RouteFlapDamper
from repro.engine import Scheduler
from repro.errors import ConfigError
from repro.net import LinkFailure, LinkRestore
from repro.topology import chain

PREFIX = "dest"
FAST_DAMPING = DampingConfig(
    withdrawal_penalty=1000.0,
    attribute_change_penalty=500.0,
    suppress_threshold=2000.0,
    reuse_threshold=750.0,
    half_life=10.0,
    max_suppress_time=60.0,
)


class TestConfig:
    def test_defaults_are_rfc_examples(self):
        config = DampingConfig()
        assert config.withdrawal_penalty == 1000.0
        assert config.suppress_threshold == 2000.0
        assert config.half_life == 900.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DampingConfig(reuse_threshold=0.0)
        with pytest.raises(ConfigError):
            DampingConfig(reuse_threshold=3000.0, suppress_threshold=2000.0)
        with pytest.raises(ConfigError):
            DampingConfig(half_life=0.0)
        with pytest.raises(ConfigError):
            DampingConfig(withdrawal_penalty=-1.0)

    def test_penalty_ceiling_respects_max_suppress(self):
        config = FAST_DAMPING
        # Decaying the ceiling to the reuse threshold takes max_suppress_time.
        ratio = config.penalty_ceiling / config.reuse_threshold
        import math

        assert config.half_life * math.log2(ratio) == pytest.approx(60.0)


class TestDamper:
    @pytest.fixture
    def reuses(self):
        return []

    @pytest.fixture
    def damper(self, scheduler, reuses):
        return RouteFlapDamper(
            scheduler,
            FAST_DAMPING,
            on_reuse=lambda peer, prefix: reuses.append((scheduler.now, peer)),
        )

    def test_single_withdrawal_does_not_suppress(self, damper):
        damper.record_withdrawal(1, PREFIX)
        assert damper.current_penalty(1, PREFIX) == pytest.approx(1000.0)
        assert not damper.is_suppressed(1, PREFIX)

    def test_two_withdrawals_suppress(self, damper):
        damper.record_withdrawal(1, PREFIX)
        damper.record_withdrawal(1, PREFIX)
        assert damper.is_suppressed(1, PREFIX)
        assert damper.suppressions == 1

    def test_penalty_decays_with_half_life(self, scheduler, damper):
        damper.record_withdrawal(1, PREFIX)
        scheduler.call_at(10.0, lambda: None)
        scheduler.run(until=10.0)
        assert damper.current_penalty(1, PREFIX) == pytest.approx(500.0)

    def test_reuse_fires_when_penalty_decays(self, scheduler, damper, reuses):
        damper.record_withdrawal(1, PREFIX)
        damper.record_withdrawal(1, PREFIX)
        scheduler.run(until=100.0)
        assert len(reuses) == 1
        when, peer = reuses[0]
        # 2000 -> 750 at half-life 10: t = 10 * log2(2000/750) ~ 14.15 s.
        assert when == pytest.approx(14.15, abs=0.05)
        assert not damper.is_suppressed(1, PREFIX)
        assert damper.reuses == 1

    def test_flaps_while_suppressed_extend_suppression(
        self, scheduler, damper, reuses
    ):
        damper.record_withdrawal(1, PREFIX)
        damper.record_withdrawal(1, PREFIX)
        scheduler.call_at(5.0, lambda: damper.record_withdrawal(1, PREFIX))
        scheduler.run(until=200.0)
        assert len(reuses) == 1
        assert reuses[0][0] > 14.2  # later than the un-extended reuse

    def test_penalty_capped_at_ceiling(self, scheduler, damper):
        for _ in range(50):
            damper.record_withdrawal(1, PREFIX)
        assert damper.current_penalty(1, PREFIX) <= FAST_DAMPING.penalty_ceiling

    def test_pairs_independent(self, damper):
        damper.record_withdrawal(1, PREFIX)
        damper.record_withdrawal(1, PREFIX)
        assert not damper.is_suppressed(2, PREFIX)
        assert not damper.is_suppressed(1, "other")

    def test_cancel_peer_clears_state(self, scheduler, damper, reuses):
        damper.record_withdrawal(1, PREFIX)
        damper.record_withdrawal(1, PREFIX)
        damper.cancel_peer(1)
        assert not damper.is_suppressed(1, PREFIX)
        assert damper.current_penalty(1, PREFIX) == 0.0
        scheduler.run(until=100.0)
        assert reuses == []

    def test_attribute_change_penalty_smaller(self, damper):
        damper.record_change(1, PREFIX)
        assert damper.current_penalty(1, PREFIX) == pytest.approx(500.0)


class TestSpeakerIntegration:
    def run_with_flaps(self, damping):
        """A chain whose middle link flaps twice: the far node's view of its
        neighbor's route flaps, accruing penalty."""
        from repro.bgp import BgpSpeaker
        from repro.engine import RandomStreams, Scheduler
        from repro.net import Network

        config = BgpConfig(
            mrai=1.0, processing_delay=(0.01, 0.05), damping=damping
        )
        scheduler = Scheduler()
        streams = RandomStreams(8)
        network = Network(
            chain(3),
            scheduler,
            lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
        )
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(max_events=100_000)
        base = scheduler.now
        for offset in (1.0, 6.0, 11.0):
            LinkFailure(0, 1, at=base + offset).inject(network)
            LinkRestore(0, 1, at=base + offset + 2.0).inject(network)
        scheduler.run(max_events=200_000)
        return network, scheduler

    def test_flapping_route_gets_suppressed_then_reused(self):
        network, scheduler = self.run_with_flaps(FAST_DAMPING)
        node2 = network.node(2)
        assert node2.damper is not None
        assert node2.damper.suppressions >= 1
        assert node2.damper.reuses == node2.damper.suppressions
        # After reuse the route must be back and consistent.
        assert node2.best_route(PREFIX) is not None
        node2.check_invariants()

    def test_without_damping_no_damper(self):
        network, _scheduler = self.run_with_flaps(None)
        assert network.node(2).damper is None
        assert network.node(2).best_route(PREFIX) is not None

    def test_suppressed_route_not_selected(self):
        """While suppressed, the node must route around (or lose) the
        flapping route even though it is still stored in the Adj-RIB-In."""
        from repro.bgp import BgpSpeaker
        from repro.engine import RandomStreams, Scheduler
        from repro.net import Network

        config = BgpConfig(
            mrai=1.0, processing_delay=(0.01, 0.05), damping=FAST_DAMPING
        )
        scheduler = Scheduler()
        streams = RandomStreams(9)
        network = Network(
            chain(3),
            scheduler,
            lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
        )
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(max_events=100_000)
        node2 = network.node(2)
        # Two manual flap records push (peer 1, dest) over the threshold.
        node2.damper.record_withdrawal(1, PREFIX)
        node2.damper.record_withdrawal(1, PREFIX)
        node2._run_decisions([PREFIX])
        assert node2.best_route(PREFIX) is None       # suppressed, no backup
        assert node2.adj_rib_in.get(1, PREFIX) is not None  # but retained
        node2.check_invariants()
        scheduler.run(max_events=100_000)             # reuse timer fires
        assert node2.best_route(PREFIX) is not None
        node2.check_invariants()
