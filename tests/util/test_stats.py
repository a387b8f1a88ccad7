"""Unit tests for repro.util.stats."""

import pytest

from repro.errors import AnalysisError
from repro.util import (
    coefficient_of_variation,
    linear_fit,
    mean,
    median,
    stdev,
    summarize,
)


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(AnalysisError):
            mean([])

    def test_stdev(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)

    def test_stdev_short_input(self):
        assert stdev([5]) == 0.0

    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5

    def test_median_empty(self):
        with pytest.raises(AnalysisError):
            median([])

    def test_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([0, 0]) == 0.0
        assert coefficient_of_variation([1, 3]) > 0.5


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([1, 2, 3], [3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_ys(self):
        fit = linear_fit([1, 2, 3], [4, 4, 4])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_noisy_data_reduces_r_squared(self):
        fit = linear_fit([1, 2, 3, 4], [1, 5, 2, 6])
        assert fit.r_squared < 0.9

    def test_degenerate_inputs(self):
        with pytest.raises(AnalysisError):
            linear_fit([1], [1])
        with pytest.raises(AnalysisError):
            linear_fit([2, 2], [1, 3])
        with pytest.raises(AnalysisError):
            linear_fit([1, 2], [1])


class TestSummary:
    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert "n=3" in str(summary)

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize([])
