"""Unit tests for repro.telemetry.profiler (harness-side wall clock)."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import PhaseProfiler, Stopwatch, time_callable


class TestPhaseProfiler:
    def test_phases_accumulate_in_order(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        with profiler.phase("a"):
            pass
        timings = profiler.timings()
        assert [t.name for t in timings] == ["a", "b"]
        assert all(t.seconds >= 0 for t in timings)
        assert profiler.total_seconds == pytest.approx(
            sum(t.seconds for t in timings)
        )

    def test_nested_phases_allowed(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        assert {t.name for t in profiler.timings()} == {"outer", "inner"}

    def test_summary_while_active_rejected(self):
        profiler = PhaseProfiler()
        with pytest.raises(TelemetryError, match="active"):
            with profiler.phase("open"):
                profiler.timings()

    def test_render(self):
        profiler = PhaseProfiler()
        with profiler.phase("work"):
            pass
        text = profiler.render()
        assert "work" in text and "total" in text and "%" in text
        assert "(no phases recorded)" in PhaseProfiler().render()


class TestStopwatchAndTimeCallable:
    def test_stopwatch_elapsed_grows(self):
        watch = Stopwatch.start()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0 <= first <= second

    def test_time_callable_returns_best_and_result(self):
        calls = []
        seconds, result = time_callable(lambda: calls.append(1) or 42, repeats=3)
        assert result == 42
        assert len(calls) == 3
        assert seconds >= 0

    def test_time_callable_rejects_zero_repeats(self):
        with pytest.raises(TelemetryError, match="repeats"):
            time_callable(lambda: None, repeats=0)
