"""Unit tests for the §3.2 analytical model."""

import pytest

from repro.core import (
    resolution_schedule,
    worst_case_detection_delay,
    worst_case_loop_duration,
)
from repro.errors import AnalysisError


class TestBounds:
    def test_worst_case_duration_formula(self):
        assert worst_case_loop_duration(2, 30.0) == 30.0
        assert worst_case_loop_duration(5, 30.0) == 120.0

    def test_detection_delay_formula(self):
        # (m - k + 1) * M
        assert worst_case_detection_delay(5, 2, 30.0) == 120.0
        assert worst_case_detection_delay(5, 5, 30.0) == 30.0

    def test_worst_case_is_k_equals_2(self):
        m, mrai = 6, 10.0
        assert worst_case_detection_delay(m, 2, mrai) == worst_case_loop_duration(
            m, mrai
        )
        for k in range(3, m + 1):
            assert worst_case_detection_delay(m, k, mrai) < worst_case_loop_duration(
                m, mrai
            )

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            worst_case_loop_duration(1, 30.0)
        with pytest.raises(AnalysisError):
            worst_case_loop_duration(3, -1.0)
        with pytest.raises(AnalysisError):
            worst_case_detection_delay(5, 1, 30.0)
        with pytest.raises(AnalysisError):
            worst_case_detection_delay(5, 6, 30.0)


class TestSchedule:
    @pytest.mark.parametrize("m", [3, 4, 5, 8])
    @pytest.mark.parametrize("k", [2, 3])
    def test_schedule_agrees_with_closed_form(self, m, k):
        if k > m:
            pytest.skip("k must be <= m")
        steps = resolution_schedule(m, k, 10.0)
        assert steps[-1].time_bound == worst_case_detection_delay(m, k, 10.0)

    def test_schedule_steps_walk_counterclockwise(self):
        steps = resolution_schedule(m=5, k=2, mrai=10.0)
        informed = [step.node for step in steps]
        assert informed == [5, 4, 3, 2]  # c_m first, ending at c_k

    def test_final_path_contains_ck(self):
        """The terminating path (c_{k+1} ... c_m c_1 ... c_k) contains c_k,
        which is exactly why poison reverse breaks the loop there."""
        k = 3
        steps = resolution_schedule(m=6, k=k, mrai=10.0)
        assert k in steps[-1].path

    def test_time_bounds_monotone(self):
        steps = resolution_schedule(m=7, k=2, mrai=5.0)
        times = [step.time_bound for step in steps]
        assert times == sorted(times)
        assert times[-1] == worst_case_detection_delay(7, 2, 5.0)
