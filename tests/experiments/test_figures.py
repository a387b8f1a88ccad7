"""Smoke tests for the per-figure drivers (tiny parameters).

The drivers' defaults reproduce the committed results (``repro figure <id>``,
checked in ``test_claims.py`` and CI); here we only assert that every
driver runs end to end, returns aligned series, and attaches its checks.
"""

import pytest

from repro.bgp import BgpConfig
from repro.errors import BudgetExceededError
from repro.experiments import (
    RunSettings,
    TrialFailure,
    TrialTask,
    clique_tdown_trial,
    trial_runner,
)
from repro.experiments.figures import (
    figure4a,
    figure4b,
    figure5a,
    figure6a,
    figure7a,
    figure8a,
    figure9a,
    metric_sweep_figure,
    normalize_to,
    theory_bound_figure,
    variant_comparison_series,
)
from repro.experiments.scenarios import tdown_clique

TINY = dict(mrai=1.0, seeds=(0,))


class TestMetricSweepDrivers:
    def test_figure4a(self):
        fig = figure4a(sizes=(3, 4), **TINY)
        assert fig.xs == [3, 4]
        assert set(fig.series) == {"looping_duration", "convergence_time"}
        assert fig.checks and fig.checks[0].name == "obs1-coupling"

    def test_figure4b(self):
        fig = figure4b(sizes=(3, 4), **TINY)
        assert len(fig.series["convergence_time"]) == 2

    def test_figure5a(self):
        fig = figure5a(
            mrai_values=(1.0, 2.0, 3.0), clique_size=4, seeds=(0,)
        )
        assert fig.xs == [1.0, 2.0, 3.0]
        assert len(fig.checks) == 2

    def test_figure6a(self):
        fig = figure6a(sizes=(3, 4), **TINY)
        assert set(fig.series) == {"ttl_exhaustions", "looping_ratio"}
        assert any(check.name == "looping-ratio-floor" for check in fig.checks)

    def test_figure7a(self):
        fig = figure7a(
            mrai_values=(1.0, 2.0, 3.0), clique_size=4, seeds=(0,)
        )
        names = {check.name for check in fig.checks}
        assert "linear-in-mrai" in names
        assert "obs2-ratio-constant" in names


class TestComparisonDrivers:
    def test_figure8a_normalized_standard_is_unity(self):
        fig = figure8a(sizes=(3, 4), **TINY)
        assert fig.series["standard"] == [1.0, 1.0]
        assert set(fig.series) == {
            "standard",
            "ssld",
            "wrate",
            "assertion",
            "ghost-flushing",
        }

    def test_figure9a(self):
        fig = figure9a(sizes=(3,), **TINY)
        assert len(fig.xs) == 1


class TestTheoryDriver:
    def test_theory_bound_respected_on_small_rings(self):
        fig = theory_bound_figure(
            ring_sizes=(3, 4), mrai=2.0, seeds=(0,)
        )
        (check,) = fig.checks
        assert check.holds, check.detail
        for measured, bound in zip(fig.series["measured_max_loop"], fig.series["bound"]):
            assert measured <= bound + 2.0


class TestTradeoffDriver:
    def test_fate_breakdown_per_variant(self):
        from repro.experiments import bclique_tlong_trial
        from repro.experiments.figures.tradeoff import (
            packet_fate_breakdown,
            tradeoff_bclique,
        )

        breakdowns = packet_fate_breakdown(
            bclique_tlong_trial,
            3,
            ["standard", "ghost-flushing"],
            mrai=1.0,
            seeds=(0,),
        )
        assert set(breakdowns) == {"standard", "ghost-flushing"}
        for fate in breakdowns.values():
            total = (
                fate.delivered_ratio + fate.no_route_ratio + fate.looped_ratio
            )
            assert total == pytest.approx(1.0) or fate.packets_sent == 0
        table = tradeoff_bclique(size=3, mrai=1.0, seeds=(0,))
        assert [row[0] for row in table.rows][-1] == "ghost-flushing"
        assert "ghost-flushing" in table.render()

    def test_requires_seeds(self):
        from repro.errors import AnalysisError
        from repro.experiments import bclique_tlong_trial
        from repro.experiments.figures.tradeoff import packet_fate_breakdown

        with pytest.raises(AnalysisError):
            packet_fate_breakdown(bclique_tlong_trial, 3, ["standard"], seeds=())


class TestCommonHelpers:
    def test_normalize_to(self):
        normalized = normalize_to([2.0, 4.0], {"a": [1.0, 8.0]})
        assert normalized["a"] == [0.5, 2.0]

    def test_normalize_to_zero_baseline(self):
        normalized = normalize_to([0.0, 0.0], {"a": [0.0, 3.0]})
        assert normalized["a"][0] == 1.0
        assert normalized["a"][1] == float("inf")

    def test_variant_comparison_shares_scenarios(self):
        table = variant_comparison_series(
            [3.0],
            lambda x, seed: tdown_clique(int(x)),
            "convergence_time",
            ["standard", "ssld"],
            mrai=1.0,
            seeds=(0,),
        )
        assert set(table) == {"standard", "ssld"}
        assert all(len(v) == 1 for v in table.values())

    def test_metric_sweep_mrai_is_x(self):
        with trial_runner() as runner:
            fig = metric_sweep_figure(
                "t",
                "title",
                "mrai",
                [1.0, 2.0],
                lambda x, seed: tdown_clique(int(x)),
                ["convergence_time"],
                seeds=(0,),
                size=3,
            )
            runs = list(runner.outcomes)
        assert fig.xs == [1.0, 2.0]
        assert [run.bgp_config.mrai for run in runs] == [1.0, 2.0]
        assert {run.scenario.name for run in runs} == {"tdown-clique-3"}

    def test_a_failed_trial_fails_the_row(self):
        """Seven of these eight trials exhaust the event budget: the size
        sweep raises the first failure instead of averaging the survivor."""
        settings = RunSettings(event_budget=125)
        seeds = range(8)
        config = BgpConfig.standard(2.0)
        with trial_runner() as runner:
            outcomes, _report = runner.run(
                [TrialTask(5, s, clique_tdown_trial, config, settings) for s in seeds]
            )
            failed = [isinstance(outcome, TrialFailure) for outcome in outcomes]
            assert 0 < sum(failed) < len(failed)
            with pytest.raises(BudgetExceededError):
                metric_sweep_figure(
                    "t",
                    "title",
                    "clique_size",
                    [5],
                    clique_tdown_trial,
                    ["convergence_time"],
                    mrai=2.0,
                    seeds=seeds,
                    settings=settings,
                )
