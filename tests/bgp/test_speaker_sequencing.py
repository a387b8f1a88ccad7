"""Wire-level sequencing tests for MRAI interplay with the enhancements.

A diamond topology gives node 1 three upstream paths of increasing length,
so consecutive failures force it through a lengthening sequence while its
MRAI timer toward downstream node 2 is running — exactly the situation in
which standard BGP stays silent, Ghost Flushing sends its flush
withdrawal, and WRATE delays a real withdrawal.

Topology (destination behind node 0):

    0 --- 1 --- 2         1's paths: (0), then (3 0), then (5 4 0)
    |    /|
    |   / |
    3--   5 --- 4 --- 0 (via 4)
"""

from repro.bgp import Announcement, AsPath, BgpConfig, BgpSpeaker, Withdrawal
from repro.engine import RandomStreams, Scheduler
from repro.net import LinkFailure, Network
from repro.topology import Topology

PREFIX = "dest"
MRAI = 10.0
MIN_HOLD = 0.75 * MRAI  # jitter low edge: no held update can precede this


def diamond() -> Topology:
    return Topology.from_edges(
        [(0, 1), (1, 2), (0, 3), (1, 3), (0, 4), (4, 5), (1, 5)]
    )


def build(config, seed=3):
    scheduler = Scheduler()
    streams = RandomStreams(seed)
    network = Network(
        diamond(),
        scheduler,
        lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
    )
    network.node(0).originate(PREFIX)
    network.start()
    scheduler.run(max_events=200_000)
    return network, scheduler


def messages_1_to_2(network, since):
    return [
        r
        for r in network.trace
        if r.src == 1 and r.dst == 2 and r.time >= since
    ]


def fail_first_two_upstreams(network, scheduler):
    """Fail (0,1) then (1,3) one second apart; returns both instants."""
    t0 = scheduler.now + 1.0
    LinkFailure(0, 1, at=t0).inject(network)
    LinkFailure(1, 3, at=t0 + 1.0).inject(network)
    return t0, t0 + 1.0


class TestGhostFlushingSequencing:
    def test_flush_withdrawal_precedes_held_announcement(self):
        config = BgpConfig(
            mrai=MRAI, processing_delay=(0.01, 0.05), ghost_flushing=True
        )
        network, scheduler = build(config)
        t0, t1 = fail_first_two_upstreams(network, scheduler)
        scheduler.run(max_events=200_000)

        wire = messages_1_to_2(network, since=t0)
        kinds = [type(r.message).__name__ for r in wire]
        # 1) failover announcement (timer idle -> immediate),
        # 2) the ghost flush (longer path held by MRAI -> withdrawal now),
        # 3) the held announcement when the timer expires.
        assert kinds[:3] == ["Announcement", "Withdrawal", "Announcement"], kinds
        first, flush, held = wire[:3]
        assert first.message.path == AsPath((1, 3, 0))
        assert first.time < t0 + 1.0
        assert flush.time < t1 + 1.0          # flush is NOT rate-limited
        assert held.message.path == AsPath((1, 5, 4, 0))
        assert held.time >= first.time + MIN_HOLD  # announcement was held


class TestStandardSequencing:
    def test_longer_path_waits_silently_for_mrai(self):
        config = BgpConfig(mrai=MRAI, processing_delay=(0.01, 0.05))
        network, scheduler = build(config)
        t0, _t1 = fail_first_two_upstreams(network, scheduler)
        scheduler.run(max_events=200_000)

        wire = messages_1_to_2(network, since=t0)
        kinds = [type(r.message).__name__ for r in wire]
        # No flush: the second (longer) path simply waits for the timer.
        assert kinds[:2] == ["Announcement", "Announcement"], kinds
        first, held = wire[:2]
        assert first.message.path == AsPath((1, 3, 0))
        assert held.message.path == AsPath((1, 5, 4, 0))
        assert held.time >= first.time + MIN_HOLD


class TestWithdrawalSequencing:
    def fail_all_upstreams(self, network, scheduler):
        t0 = scheduler.now + 1.0
        LinkFailure(0, 1, at=t0).inject(network)
        LinkFailure(1, 3, at=t0 + 1.0).inject(network)
        LinkFailure(1, 5, at=t0 + 1.5).inject(network)
        return t0

    def test_standard_withdrawal_is_immediate(self):
        config = BgpConfig(mrai=MRAI, processing_delay=(0.01, 0.05))
        network, scheduler = build(config)
        t0 = self.fail_all_upstreams(network, scheduler)
        scheduler.run(max_events=200_000)
        withdrawals = [
            r
            for r in messages_1_to_2(network, since=t0)
            if isinstance(r.message, Withdrawal)
        ]
        assert withdrawals, "node 1 must withdraw from node 2"
        # Route lost at t0+1.5; standard withdrawal goes right away even
        # though the announcement timer (armed at ~t0) is still running.
        assert withdrawals[0].time < t0 + 2.5

    def test_wrate_holds_the_withdrawal(self):
        config = BgpConfig(mrai=MRAI, processing_delay=(0.01, 0.05), wrate=True)
        network, scheduler = build(config)
        t0 = self.fail_all_upstreams(network, scheduler)
        scheduler.run(max_events=200_000)
        wire = messages_1_to_2(network, since=t0)
        first_announcement = next(
            r for r in wire if isinstance(r.message, Announcement)
        )
        withdrawals = [r for r in wire if isinstance(r.message, Withdrawal)]
        assert withdrawals, "the withdrawal must eventually go out"
        # Under WRATE it cannot precede the jittered-minimum hold after the
        # failover announcement that armed the timer.
        assert withdrawals[0].time >= first_announcement.time + MIN_HOLD
