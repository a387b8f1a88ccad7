"""Unit tests for the MRAI manager."""

import random

import pytest

from repro.bgp import MraiManager


@pytest.fixture
def expiries():
    return []


def make_manager(scheduler, expiries, interval=10.0, jitter=(1.0, 1.0)):
    return MraiManager(
        scheduler,
        interval=interval,
        jitter=jitter,
        rng=random.Random(0),
        on_expiry=lambda peer, held: expiries.append((scheduler.now, peer, held)),
    )


class TestHoldRelease:
    def test_can_send_initially(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        assert mrai.can_send_now(1, "d")

    def test_mark_sent_holds_until_expiry(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        mrai.mark_sent(1, "d")
        assert not mrai.can_send_now(1, "d")
        mrai.hold([(1, "d")])  # an update suppressed meanwhile
        scheduler.run()
        assert expiries == [(10.0, 1, ["d"])]
        assert mrai.can_send_now(1, "d")

    def test_pairs_are_independent(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        mrai.mark_sent(1, "d")
        assert mrai.can_send_now(2, "d")   # other peer unaffected
        assert mrai.can_send_now(1, "e")   # other prefix unaffected

    def test_mark_sent_restarts_timer(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        mrai.mark_sent(1, "d")
        scheduler.call_at(4.0, lambda: mrai.mark_sent(1, "d"))
        scheduler.run()
        assert expiries == [(14.0, 1, [])]  # once, and nothing was held

    def test_active_timers_count(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        mrai.mark_sent(1, "d")
        mrai.mark_sent(2, "d")
        assert mrai.active_timers() == 2
        scheduler.run()
        assert mrai.active_timers() == 0


class TestDisabled:
    def test_zero_interval_disables_holding(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries, interval=0.0)
        mrai.mark_sent(1, "d")
        assert mrai.can_send_now(1, "d")
        scheduler.run()
        assert expiries == []


class TestJitter:
    def test_jitter_scales_interval(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries, interval=10.0, jitter=(0.75, 1.0))
        mrai.mark_sent(1, "d")
        scheduler.run()
        when = expiries[0][0]
        assert 7.5 <= when <= 10.0

    def test_jitter_varies_across_armings(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries, interval=10.0, jitter=(0.75, 1.0))
        for peer in range(10):
            mrai.mark_sent(peer, "d")
        scheduler.run()
        distinct_expiry_times = {when for when, _peer, _prefix in expiries}
        assert len(distinct_expiry_times) > 1  # armings draw fresh jitter


class TestSessionDown:
    def test_cancel_peer_releases_holds(self, scheduler, expiries):
        mrai = make_manager(scheduler, expiries)
        mrai.mark_sent(1, "a")
        mrai.mark_sent(1, "b")
        mrai.mark_sent(2, "a")
        for peer, prefix in ((1, "a"), (1, "b"), (2, "a")):
            mrai.hold([(peer, prefix)])
        mrai.cancel_peer(1)
        assert mrai.can_send_now(1, "a")
        assert mrai.can_send_now(1, "b")
        assert not mrai.can_send_now(2, "a")
        mrai.mark_sent(1, "a")  # re-armed: the dropped held set stays dropped
        scheduler.run()
        assert [(p, held) for _t, p, held in expiries] == [(2, ["a"]), (1, [])]


class TestValidation:
    def test_negative_interval_rejected(self, scheduler, expiries):
        with pytest.raises(ValueError):
            make_manager(scheduler, expiries, interval=-1.0)

    def test_bad_jitter_rejected(self, scheduler, expiries):
        with pytest.raises(ValueError):
            make_manager(scheduler, expiries, jitter=(0.0, 1.0))
        with pytest.raises(ValueError):
            make_manager(scheduler, expiries, jitter=(1.5, 1.0))
