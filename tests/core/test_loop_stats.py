"""Unit tests for per-loop statistics (the paper's future-work metrics)."""

import pytest

from repro.core import LoopStatistics, percentile
from repro.core.loop_detector import LoopInterval
from repro.errors import AnalysisError


def interval(cycle, start, end):
    return LoopInterval(cycle=tuple(cycle), start=start, end=end)


@pytest.fixture
def stats():
    intervals = [
        interval((1, 2), 10.0, 14.0),     # 2-node, 4s
        interval((1, 2), 20.0, 21.0),     # same loop re-forms, 1s
        interval((3, 4, 5), 11.0, 13.0),  # 3-node, 2s
        interval((2, 6), 12.0, 12.5),     # 2-node, 0.5s
    ]
    return LoopStatistics.from_intervals(intervals, failure_time=10.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        assert percentile([3, 1, 2], 0) == 1
        assert percentile([3, 1, 2], 100) == 3

    def test_single_value(self):
        assert percentile([7], 90) == 7

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            percentile([], 50)
        with pytest.raises(AnalysisError):
            percentile([1], 150)


class TestDistributions:
    def test_count_and_sizes(self, stats):
        assert stats.count == 4
        assert sorted(stats.sizes()) == [2, 2, 2, 3]
        assert stats.size_histogram() == {2: 3, 3: 1}

    def test_two_node_share(self, stats):
        assert stats.two_node_share() == pytest.approx(0.75)

    def test_two_node_share_empty(self):
        assert LoopStatistics().two_node_share() == 0.0

    def test_durations(self, stats):
        assert stats.durations() == [4.0, 1.0, 2.0, 0.5]
        assert LoopStatistics().durations() == []
        assert LoopStatistics().size_histogram() == {}

    def test_duration_summary(self, stats):
        summary = stats.duration_summary()
        assert summary.maximum == 4.0
        assert summary.minimum == 0.5
        assert summary.mean == pytest.approx((4 + 1 + 2 + 0.5) / 4)

    def test_duration_percentiles(self, stats):
        assert stats.duration_percentile(100) == 4.0
        assert stats.duration_percentile(0) == 0.5

    def test_formation_delays(self, stats):
        assert min(stats.formation_delays) == 0.0   # first loop forms at the failure
        assert max(stats.formation_delays) == 10.0

    def test_total_loop_seconds(self, stats):
        assert stats.total_loop_seconds() == pytest.approx(7.5)


class TestMergeAndDescribe:
    def test_merge_pools_runs(self, stats):
        other = LoopStatistics.from_intervals(
            [interval((7, 8), 5.0, 6.0)], failure_time=5.0
        )
        merged = LoopStatistics.merge([stats, other])
        assert merged.count == 5
        assert merged.size_histogram()[2] == 4

    def test_describe_mentions_key_numbers(self, stats):
        text = stats.describe()
        assert "4" in text            # count
        assert "75%" in text          # two-node share
        assert "2-node x3" in text

    def test_describe_empty(self):
        assert LoopStatistics().describe() == "no loops observed"
