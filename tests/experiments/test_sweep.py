"""Tests for sweeps and aggregation."""

import pytest

from repro.bgp import BgpConfig
from repro.errors import AnalysisError, SimulationError
from repro.experiments import RunSettings, TrialFailure, sweep, tdown_clique
from repro.experiments.sweep import summarize_points
from sweep_outcomes import sweep_outcomes

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)


@pytest.fixture(scope="module")
def swept():
    return sweep_outcomes(
        [3, 4],
        lambda x, seed: tdown_clique(int(x)),
        lambda x: FAST,
        seeds=(0, 1),
        settings=SETTINGS,
    )


class TestSweep:
    def test_one_point_per_x(self, swept):
        points, _ = swept
        assert [point.x for point in points] == [3, 4]

    def test_trials_per_point(self, swept):
        points, _ = swept
        assert all(
            (point.trials, point.succeeded) == (2, 2) for point in points
        )

    def test_series_extraction(self, swept):
        points, _ = swept
        conv = [point.metrics["convergence_time"] for point in points]
        assert len(conv) == 2
        assert all(value > 0 for value in conv)

    def test_mean_metric_is_trial_mean(self, swept):
        points, runs = swept
        values = [run.result.summary_row()["convergence_time"] for run in runs[:2]]
        assert points[0].metrics["convergence_time"] == pytest.approx(
            sum(values) / len(values)
        )

    def test_metrics_dict(self, swept):
        points, _ = swept
        metrics = points[0].metrics
        assert "looping_ratio" in metrics and "ttl_exhaustions" in metrics

    def test_config_factory_receives_x(self):
        seen = []

        def make_config(x):
            seen.append(x)
            return FAST

        sweep(
            [3],
            lambda x, seed: tdown_clique(int(x)),
            make_config,
            seeds=(0,),
            settings=SETTINGS,
        )
        assert seen == [3]

    def test_empty_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            sweep([], lambda x, s: tdown_clique(3), lambda x: FAST)
        with pytest.raises(AnalysisError):
            sweep([3], lambda x, s: tdown_clique(3), lambda x: FAST, seeds=())


class _StubResult:
    def __init__(self, row):
        self._row = row

    def summary_row(self):
        return dict(self._row)


class _StubRun:
    """Just enough of an ExperimentRun for a point summary."""

    seed = 0
    attempt = 1
    fingerprint = None

    def __init__(self, **row):
        self.result = _StubResult(row)


def _failure(x, seed):
    return TrialFailure(x=x, seed=seed, error=SimulationError("died"))


class TestSweepPointStatistics:
    """Aggregation edge cases: failed trials are counted, never averaged."""

    def test_all_failed_point_has_no_metrics(self):
        [point] = summarize_points([6.0], [_failure(6.0, 0), _failure(6.0, 1)])
        assert (point.trials, point.failed, point.metrics) == (2, 2, {})

    def test_mixed_point_counts(self):
        [point] = summarize_points(
            [5.0], [_StubRun(m=1.0), _StubRun(m=3.0), _failure(5.0, 2)]
        )
        assert point.trials == 3
        assert point.succeeded == 2
        assert point.failed == 1

    def test_mixed_point_mean_uses_only_successes(self):
        [point] = summarize_points(
            [5.0],
            [_StubRun(m=1.0), _StubRun(m=3.0), _failure(5.0, 2), _failure(5.0, 3)],
        )
        assert point.metrics == {"m": pytest.approx(2.0)}

    def test_series_preserves_point_order(self):
        points = summarize_points([4.0, 3.0], [_StubRun(m=4.5), _StubRun(m=3.5)])
        assert [point.metrics["m"] for point in points] == [4.5, 3.5]
        assert [point.x for point in points] == [4.0, 3.0]
