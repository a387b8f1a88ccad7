"""Tests for session re-establishment: ConnectRetry, OPEN handshake, crashes."""

import pytest

from repro.bgp import BgpConfig, BgpSpeaker, Open, SessionManager
from repro.engine import RandomStreams
from repro.errors import ConfigError
from repro.net import Network
from repro.topology import chain, clique

PREFIX = "dest"
RECONNECT_CONFIG = BgpConfig(
    mrai=1.0,
    processing_delay=(0.01, 0.05),
    hold_time=9.0,
    keepalive_interval=3.0,
    connect_retry=0.5,
    connect_retry_cap=4.0,
)


def make_network(scheduler, topo, config=RECONNECT_CONFIG, seed=4):
    streams = RandomStreams(seed)
    return Network(
        topo,
        scheduler,
        lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
    )


class TestConnectRetryBackoff:
    @pytest.fixture
    def attempts(self):
        return []

    @pytest.fixture
    def manager(self, scheduler, attempts):
        def connect(neighbor):
            attempts.append(scheduler.now)
            manager.start_reconnect(neighbor)  # peer never answers

        manager = SessionManager(
            scheduler,
            hold_time=9.0,
            keepalive_interval=3.0,
            send_keepalive=lambda n: None,
            on_session_down=lambda n: None,
            connect=connect,
            retry_base=1.0,
            retry_cap=4.0,
            rng=None,  # no jitter: exact backoff arithmetic
        )
        return manager

    def test_delays_double_then_cap(self, scheduler, manager, attempts):
        manager.start_reconnect(1)
        scheduler.run(until=20.0)
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        # 1, 2, 4, then capped at 4.
        assert attempts[0] == pytest.approx(1.0)
        assert gaps[0] == pytest.approx(2.0)
        assert gaps[1] == pytest.approx(4.0)
        assert all(g == pytest.approx(4.0) for g in gaps[2:])

    def test_establish_resets_backoff_and_counts_reestablishment(
        self, scheduler, manager, attempts
    ):
        manager.start_reconnect(1)
        scheduler.run(until=4.0)  # a few failed attempts accumulate backoff
        assert len(attempts) >= 2
        manager.establish(1)
        assert manager.established(1)
        assert manager.sessions_reestablished == 1
        assert not manager.retry_pending(1)
        # A later loss starts over at the base delay.
        manager.teardown(1)
        start = scheduler.now
        manager.start_reconnect(1)
        scheduler.run(until=start + 1.5)
        assert attempts[-1] == pytest.approx(start + 1.0)

    def test_boot_establish_is_not_a_reestablishment(self, scheduler, manager):
        manager.establish(1)
        assert manager.sessions_reestablished == 0

    def test_retry_jitter_validation(self, scheduler):
        with pytest.raises(ConfigError):
            SessionManager(
                scheduler, 9.0, 3.0, lambda n: None, lambda n: None,
                retry_base=0.0,
            )
        with pytest.raises(ConfigError):
            SessionManager(
                scheduler, 9.0, 3.0, lambda n: None, lambda n: None,
                retry_base=2.0, retry_cap=1.0,
            )

    def test_config_rejects_bad_connect_retry(self):
        with pytest.raises(ConfigError):
            BgpConfig(connect_retry=0.0)
        with pytest.raises(ConfigError):
            BgpConfig(connect_retry=5.0, connect_retry_cap=1.0)


class TestSessionResetRecovery:
    def test_reset_purges_then_reconnects_and_reconverges(self, scheduler):
        network = make_network(scheduler, chain(3))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        assert network.node(2).best_route(PREFIX) is not None

        network.reset_session(1, 2)
        # The purge is immediate: node 2 lost everything learned from 1.
        assert network.node(2).best_route(PREFIX) is None
        assert not network.node(2).sessions.established(1)

        scheduler.run(until=scheduler.now + 15.0)
        assert network.node(2).sessions.established(1)
        assert network.node(1).sessions.established(2)
        assert network.node(2).best_route(PREFIX) is not None
        # The rebuild went through the OPEN handshake, not link state.
        opens = network.trace.records(lambda r: isinstance(r.message, Open))
        assert opens, "expected OPEN messages on the wire"
        total_resets = sum(
            network.node(n).session_resets_seen for n in (1, 2)
        )
        assert total_resets == 2
        for node in network.nodes.values():
            node.check_invariants()

    def test_crossing_opens_terminate(self, scheduler):
        """Both endpoints retry after a reset; the handshake must converge
        to an established session, not an OPEN storm."""
        network = make_network(scheduler, chain(2))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        network.reset_session(0, 1)
        scheduler.run(until=scheduler.now + 20.0, max_events=50_000)
        opens = network.trace.records(lambda r: isinstance(r.message, Open))
        assert len(opens) <= 8  # a handful of handshake messages, no storm
        assert network.node(0).sessions.established(1)
        assert network.node(1).sessions.established(0)
        assert network.node(1).best_route(PREFIX) is not None

    def test_reestablishment_counted(self, scheduler):
        network = make_network(scheduler, chain(2))
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        network.reset_session(0, 1)
        scheduler.run(until=scheduler.now + 15.0)
        reestablished = sum(
            network.node(n).sessions.sessions_reestablished for n in (0, 1)
        )
        assert reestablished == 2

    def test_reset_without_session_layer_reexchanges_instantly(self, scheduler):
        """The paper-mode (sessionless) speaker models a reset as an
        instantaneous TCP rebuild: purge + immediate full re-exchange."""
        config = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
        network = make_network(scheduler, chain(3), config=config)
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run()
        assert network.node(2).best_route(PREFIX) is not None
        network.reset_session(1, 2)
        scheduler.run()
        assert network.node(2).best_route(PREFIX) is not None
        assert network.node(2).session_resets_seen == 1
        for node in network.nodes.values():
            node.check_invariants()


class TestSpeakerCrashRestart:
    @pytest.mark.parametrize("config", [
        BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05)),
        RECONNECT_CONFIG,
    ], ids=["paper-mode", "session-mode"])
    def test_crash_purges_and_restart_relearns(self, scheduler, config):
        network = make_network(scheduler, clique(4), config=config)
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=30.0)
        crashed = network.node(1)
        assert crashed.best_route(PREFIX) is not None

        network.crash_node(1)
        assert crashed.best_route(PREFIX) is None
        assert crashed.fib.get(PREFIX) is None
        assert not crashed.alive

        scheduler.run(until=scheduler.now + 20.0)
        # Survivors converge around the hole.
        for nid in (2, 3):
            assert network.node(nid).best_route(PREFIX) is not None

        network.restart_node(1)
        scheduler.run(until=scheduler.now + 30.0)
        assert crashed.alive
        assert crashed.best_route(PREFIX) is not None
        assert crashed.next_hop(PREFIX) == 0  # direct route re-learned
        for node in network.nodes.values():
            node.check_invariants()

    def test_crashed_origin_reoriginates_on_restart(self, scheduler):
        """Origination survives a crash as configuration, not state."""
        config = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
        network = make_network(scheduler, chain(2), config=config)
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run()
        network.crash_node(0)
        scheduler.run()
        assert network.node(1).best_route(PREFIX) is None
        network.restart_node(0)
        scheduler.run()
        assert network.node(0).best_route(PREFIX) is not None
        assert network.node(1).best_route(PREFIX) is not None

    def test_crash_drops_queued_work(self, scheduler):
        config = BgpConfig(mrai=1.0, processing_delay=(0.2, 0.4))
        network = make_network(scheduler, clique(3), config=config)
        network.node(0).originate(PREFIX)
        network.start()
        # Crash node 1 early, while announcements are still queued on its CPU.
        scheduler.call_at(0.3, lambda: network.crash_node(1))
        scheduler.run(until=30.0)
        assert network.node(1).processor.jobs_dropped >= 0
        assert network.node(1).best_route(PREFIX) is None
        assert network.node(2).best_route(PREFIX) is not None
