"""Unit + integration tests for update-churn analysis."""

import pytest

from repro.bgp import Announcement, AsPath, BgpConfig, UpdateBatch, Withdrawal
from repro.bgp.mrai import MRAI_PER_PEER
from repro.core import UpdateChurn
from repro.experiments import RunSettings, run_experiment, tdown_clique
from repro.experiments.scenarios import tagg_clique
from repro.net import MessageTrace


def ann():
    return Announcement(prefix="d", path=AsPath((1, 0)))


def wd():
    return Withdrawal(prefix="d")


@pytest.fixture
def churn():
    trace = MessageTrace()
    trace.record(5.0, 0, 1, ann())      # pre-failure: excluded
    trace.record(10.0, 0, 1, wd())
    trace.record(11.0, 0, 2, wd())
    trace.record(12.0, 1, 2, ann())
    trace.record(14.5, 1, 2, ann())
    trace.record(15.0, 1, 2, "keepalive")  # not an update
    trace.record(20.0, 2, 1, ann())
    return UpdateChurn.from_trace(trace, failure_time=10.0)


class TestExtraction:
    def test_counts(self, churn):
        assert churn.total_updates == 5
        assert churn.announcements == 3
        assert churn.withdrawals == 2
        assert churn.withdrawal_fraction == pytest.approx(0.4)

    def test_pre_failure_and_non_updates_excluded(self, churn):
        assert 5.0 not in churn.send_times
        assert len(churn.send_times) == 5

    def test_per_sender(self, churn):
        assert churn.per_sender == {0: 2, 1: 2, 2: 1}
        assert churn.busiest_senders(top=1) == [(0, 2)]

    def test_busiest_senders_tie_break_by_id(self, churn):
        assert churn.busiest_senders(top=2) == [(0, 2), (1, 2)]


class TestTimeline:
    def test_empty_trace(self):
        churn = UpdateChurn.from_trace(MessageTrace(), failure_time=0.0)
        assert churn.total_updates == 0
        assert churn.withdrawal_fraction == 0.0

    def test_pair_spacings(self, churn):
        gaps = sorted(churn.pair_spacings())
        assert gaps == [pytest.approx(2.5)]
        assert churn.min_pair_spacing() == pytest.approx(2.5)

    def test_min_spacing_none_when_no_repeats(self):
        trace = MessageTrace()
        trace.record(1.0, 0, 1, ann())
        churn = UpdateChurn.from_trace(trace, failure_time=0.0)
        assert churn.min_pair_spacing() is None


class TestOnRealRun:
    def test_mrai_floor_visible_in_spacings(self):
        """Announcement spacings on any (src, dst) pair cannot fall below
        the minimum jittered MRAI — measured on a real clique Tdown.

        Withdrawals are exempt, so only announcements enter the check.
        """
        config = BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
        run = run_experiment(
            tdown_clique(6),
            config,
            settings=RunSettings(failure_guard=0.5),
            seed=2,
            keep_network=True,
        )
        pairs = {}
        for record in run.network.trace:
            if record.time < run.failure_time:
                continue
            if not isinstance(record.message, Announcement):
                continue
            pairs.setdefault((record.src, record.dst), []).append(record.time)
        floor = 0.75 * 2.0
        for times in pairs.values():
            for a, b in zip(times, times[1:]):
                assert b - a >= floor - 1e-9

    def test_churn_totals_match_convergence_report(self):
        config = BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
        run = run_experiment(
            tdown_clique(5),
            config,
            settings=RunSettings(failure_guard=0.5),
            seed=3,
            keep_network=True,
        )
        churn = UpdateChurn.from_trace(run.network.trace, run.failure_time)
        report = run.result.convergence
        assert churn.total_updates == report.update_count


class TestBatchedUpdates:
    """An UpdateBatch is one update message carrying many routes."""

    def test_batch_counts_its_routes(self):
        path = AsPath((1, 0))
        trace = MessageTrace()
        batch = UpdateBatch(withdrawn=("a",), nlri=(("b", path), ("c", path)))
        trace.record(1.0, 0, 1, batch)
        trace.record(2.0, 0, 1, wd())
        churn = UpdateChurn.from_trace(trace, failure_time=0.0)
        assert churn.total_updates == 2
        assert churn.announcements == 2
        assert churn.withdrawals == 2
        assert churn.withdrawal_fraction == pytest.approx(0.5)

    def test_batched_tagg_run(self):
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            BgpConfig(
                mrai=2.0,
                processing_delay=(0.01, 0.05),
                batch_updates=True,
                mrai_mode=MRAI_PER_PEER,
            ),
            settings=RunSettings(failure_guard=0.5),
            seed=0,
            keep_network=True,
        )
        churn = UpdateChurn.from_trace(run.network.trace, run.failure_time)
        batches = [
            record.message
            for record in run.network.trace
            if record.time >= run.failure_time
            and isinstance(record.message, UpdateBatch)
        ]
        assert batches and len(batches) == churn.total_updates
        assert churn.announcements == sum(len(b.nlri) for b in batches)
        assert churn.withdrawals == sum(len(b.withdrawn) for b in batches)
        assert churn.announcements + churn.withdrawals > churn.total_updates
        assert 0.0 < churn.withdrawal_fraction < 1.0
