"""Tests for the BGP session layer (keepalives, hold timers, silent
failures)."""

import pytest

from repro.bgp import (
    BgpConfig,
    BgpSpeaker,
    Keepalive,
    SessionManager,
)
from repro.engine import RandomStreams
from repro.errors import ConfigError
from repro.net import Network
from repro.topology import chain, ring

PREFIX = "dest"
SESSION_CONFIG = BgpConfig(
    mrai=1.0,
    processing_delay=(0.01, 0.05),
    hold_time=9.0,
    keepalive_interval=3.0,
)


def make_network(scheduler, topo, config=SESSION_CONFIG, seed=4):
    streams = RandomStreams(seed)
    return Network(
        topo,
        scheduler,
        lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
    )


class TestConfig:
    def test_sessions_disabled_by_default(self):
        assert not BgpConfig().sessions_enabled

    def test_effective_keepalive_defaults_to_third(self):
        config = BgpConfig(hold_time=9.0)
        assert config.sessions_enabled
        assert config.effective_keepalive == pytest.approx(3.0)

    def test_keepalive_must_be_shorter_than_hold(self):
        with pytest.raises(ConfigError):
            BgpConfig(hold_time=3.0, keepalive_interval=3.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError):
            BgpConfig(hold_time=-1.0)
        with pytest.raises(ConfigError):
            BgpConfig(keepalive_interval=-1.0)


class TestSessionManager:
    @pytest.fixture
    def events(self):
        return {"keepalives": [], "down": []}

    @pytest.fixture
    def manager(self, scheduler, events):
        return SessionManager(
            scheduler,
            hold_time=9.0,
            keepalive_interval=3.0,
            send_keepalive=lambda n: events["keepalives"].append(
                (scheduler.now, n)
            ),
            on_session_down=lambda n: events["down"].append((scheduler.now, n)),
        )

    def test_establish_is_idempotent(self, manager):
        manager.establish(1)
        manager.establish(1)
        assert manager.established(1)
        assert manager.established_count == 1

    def test_keepalives_sent_periodically(self, scheduler, manager, events):
        manager.establish(1)
        # Keep the peer's side of the session alive so the hold timer does
        # not cancel the keepalive schedule mid-test.
        scheduler.call_at(5.0, lambda: manager.message_received(1))
        scheduler.run(until=10.0)
        times = [t for t, _n in events["keepalives"]]
        assert times[:3] == [pytest.approx(3.0), pytest.approx(6.0), pytest.approx(9.0)]

    def test_hold_expires_without_messages(self, scheduler, manager, events):
        manager.establish(1)
        scheduler.run(until=20.0)
        assert events["down"][0] == (pytest.approx(9.0), 1)
        assert manager.sessions_lost == 1
        assert not manager.established(1)

    def test_messages_refresh_hold(self, scheduler, manager, events):
        manager.establish(1)
        for t in (5.0, 10.0, 15.0):
            scheduler.call_at(t, lambda: manager.message_received(1))
        scheduler.run(until=20.0)
        assert events["down"] == []  # refreshed at 15, expiry would be 24

    def test_teardown_stops_both_timers(self, scheduler, manager, events):
        manager.establish(1)
        manager.teardown(1)
        scheduler.run(until=30.0)
        assert events["keepalives"] == []
        assert events["down"] == []

    def test_teardown_all(self, scheduler, manager, events):
        manager.establish(1)
        manager.establish(2)
        manager.teardown_all()
        assert manager.established_count == 0
        scheduler.run(until=30.0)
        assert events["down"] == []

    def test_bad_parameters(self, scheduler):
        with pytest.raises(ConfigError):
            SessionManager(scheduler, 0.0, 1.0, lambda n: None, lambda n: None)
        with pytest.raises(ConfigError):
            SessionManager(scheduler, 5.0, 5.0, lambda n: None, lambda n: None)


class TestSilentFailureDetection:
    def test_silent_failure_detected_via_hold_timer(self, scheduler):
        """Fail the chain link silently: node 2 keeps its route for up to a
        hold time, then purges it."""
        network = make_network(scheduler, chain(3))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        assert network.node(2).best_route(PREFIX) is not None

        failure_time = scheduler.now
        network.fail_link(1, 2, silent=True)
        # Immediately afterwards nothing has changed at node 2.
        scheduler.run(until=failure_time + 1.0)
        assert network.node(2).best_route(PREFIX) is not None
        # After the hold time the session dies and the route goes.
        scheduler.run(until=failure_time + SESSION_CONFIG.hold_time + 2.0)
        assert network.node(2).best_route(PREFIX) is None
        assert network.node(2).sessions.sessions_lost >= 1

    def test_loud_failure_still_detected_instantly(self, scheduler):
        network = make_network(scheduler, chain(3))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        network.fail_link(1, 2, silent=False)
        scheduler.run(until=scheduler.now + 0.5)
        assert network.node(2).best_route(PREFIX) is None

    def test_detection_latency_extends_inconsistency(self, scheduler):
        """On a ring, a silent failure leaves stale forwarding pointing into
        the dead link for the whole hold window; loud failure repairs it
        immediately."""
        network = make_network(scheduler, ring(4))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        assert network.node(2).next_hop(PREFIX) in (1, 3)
        victim_hop = network.node(2).next_hop(PREFIX)
        other = 3 if victim_hop == 1 else 1

        failure_time = scheduler.now
        network.fail_link(2, victim_hop, silent=True)
        scheduler.run(until=failure_time + 2.0)
        # Still pointing into the dead link: stale forwarding.
        assert network.node(2).next_hop(PREFIX) == victim_hop
        scheduler.run(until=failure_time + SESSION_CONFIG.hold_time + 5.0)
        assert network.node(2).next_hop(PREFIX) == other

    def test_keepalives_do_not_count_as_updates(self, scheduler):
        from repro.bgp import is_update

        network = make_network(scheduler, chain(2))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=20.0)
        keepalives = network.trace.records(
            lambda r: isinstance(r.message, Keepalive)
        )
        assert keepalives, "expected keepalives on the wire"
        assert not any(is_update(r.message) for r in keepalives)

    def test_session_reestablishes_after_link_restore(self, scheduler):
        network = make_network(scheduler, chain(3))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        t0 = scheduler.now
        network.fail_link(1, 2, silent=True)
        scheduler.run(until=t0 + SESSION_CONFIG.hold_time + 3.0)
        assert network.node(2).best_route(PREFIX) is None
        network.restore_link(1, 2)
        scheduler.run(until=scheduler.now + 10.0)
        assert network.node(2).best_route(PREFIX) is not None
        assert network.node(2).sessions.established(1)
