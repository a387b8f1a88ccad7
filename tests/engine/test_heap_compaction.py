"""Regression tests for cancelled-event heap compaction.

MRAI restart churn follows a cancel + re-arm pattern: every update sent
cancels the pair's pending timer event and schedules a fresh one.  Lazy
deletion used to leave each dead entry in the heap until its firing time
came around — after 1k cancels the scheduler was still sifting pushes and
pops past ~1k corpses.  The scheduler now counts cancellations and
rebuilds the heap without them once they are numerous (>= 64) and the
majority; these tests pin the bound and prove compaction cannot perturb
pop order.
"""

import random

from repro.bgp.mrai import MraiManager
from repro.engine import Scheduler


def test_heap_stays_bounded_after_1k_cancels():
    scheduler = Scheduler()
    events = [
        scheduler.call_at(float(i + 1), lambda: None, name=f"timer:{i}")
        for i in range(1000)
    ]
    survivor = scheduler.call_at(2000.0, lambda: None, name="survivor")
    for event in events:
        event.cancel()
    # Compaction sheds dead entries as their share crosses one half; only
    # a sub-threshold residue (< 64 cancelled) may remain.
    assert scheduler.pending < 128
    assert scheduler.substantive_pending == 1
    assert scheduler.peek_time() == survivor.time


def test_mrai_restart_churn_keeps_heap_small():
    scheduler = Scheduler()
    fired = []
    mrai = MraiManager(
        scheduler,
        interval=30.0,
        jitter=(0.75, 1.0),
        rng=random.Random(7),
        on_expiry=lambda peer, held: fired.append((peer, held)),
    )
    # 1k re-advertisements for the same pair: each mark_sent cancels the
    # running timer and re-arms it.
    for _ in range(1000):
        mrai.mark_sent(1, "d0")
    assert mrai.active_timers() == 1
    assert scheduler.pending < 128
    mrai.hold([(1, "d0")])
    scheduler.run()
    assert fired == [(1, ["d0"])]


def test_compaction_preserves_pop_order():
    scheduler = Scheduler()
    fired = []
    rng = random.Random(11)
    events = []
    for i in range(600):
        time = rng.uniform(0.0, 100.0)
        events.append(
            (time, scheduler.call_at(time, lambda t=time: fired.append(t)))
        )
    cancelled = set()
    for index in rng.sample(range(600), 400):
        events[index][1].cancel()
        cancelled.add(index)
    expected = sorted(
        time for index, (time, _) in enumerate(events) if index not in cancelled
    )
    scheduler.run()
    assert fired == expected


def test_interleaved_schedule_and_cancel_fires_every_survivor():
    scheduler = Scheduler()
    fired = []
    previous = None
    # The MRAI shape at scheduler level: hundreds of restart cycles with
    # the compactor kicking in mid-stream, plus a live tail that must
    # still fire in order.
    for i in range(500):
        if previous is not None:
            previous.cancel()
        previous = scheduler.call_at(
            1000.0 + i, lambda i=i: fired.append(i), name="restart"
        )
    scheduler.call_at(1.0, lambda: fired.append("early"))
    scheduler.run()
    assert fired == ["early", 499]
    assert scheduler.pending == 0
