"""Tests for figure/report rendering."""

import pytest

from repro.bgp import BgpConfig
from repro.core import ObservationCheck
from repro.errors import AnalysisError
from repro.experiments import (
    FigureData,
    RunSettings,
    run_experiment,
    tdown_clique,
)


def figure(checks=()):
    return FigureData(
        figure_id="figX",
        title="demo",
        x_label="size",
        xs=[3.0, 5.0],
        series={"conv": [1.0, 2.0], "loop": [0.5, 1.5]},
        checks=list(checks),
    )


class TestFigureData:
    def test_misaligned_series_rejected(self):
        with pytest.raises(AnalysisError):
            FigureData("f", "t", "x", xs=[1.0], series={"bad": [1.0, 2.0]})

    def test_render_contains_series(self):
        text = figure().render()
        assert "figX" in text and "conv" in text and "loop" in text
        assert "3" in text and "5" in text

    def test_render_includes_check_verdicts(self):
        check = ObservationCheck(name="obs", holds=True, detail="fine")
        assert "HOLDS" in figure([check]).render()

    def test_check_failures(self):
        good = ObservationCheck("a", True, "")
        bad = ObservationCheck("b", False, "")
        assert figure([good, bad]).check_failures() == [bad]


class TestTableData:
    def test_table_then_indented_verdicts(self):
        from repro.experiments.report import TableData

        table = TableData(
            "t",
            "Title",
            ["name", "value"],
            [["a", 1.5]],
            checks=[ObservationCheck("obs", True, "fine")],
        )
        assert table.render() == (
            "Title\n=====\nname | value\n-----+------\na    | 1.50\n"
            "  obs: HOLDS — fine"
        )

    def test_without_headers_the_verdicts_are_the_body(self):
        from repro.experiments.report import TableData

        table = TableData(
            "t", checks=[ObservationCheck("obs", False, "no")], notes=["x: 1.0"]
        )
        assert table.render() == "obs: VIOLATED — no\nx: 1.0"


class TestJsonExport:
    def test_round_trips_through_json(self):
        import json

        payload = json.loads(figure().to_json())
        assert payload["figure_id"] == "figX"
        assert payload["series"]["conv"] == [1.0, 2.0]
        assert payload["xs"] == [3.0, 5.0]

    def test_non_finite_values_serialized_as_strings(self):
        import json

        fig = FigureData(
            "f", "t", "x", xs=[1.0], series={"s": [float("inf")]}
        )
        payload = json.loads(fig.to_json())
        assert payload["series"]["s"] == ["inf"]

    def test_checks_included(self):
        import json

        check = ObservationCheck(name="obs", holds=False, detail="nope")
        payload = json.loads(figure([check]).to_json())
        assert payload["checks"] == [
            {"name": "obs", "holds": False, "detail": "nope"}
        ]


class TestDescribeRun:
    @pytest.fixture(scope="class")
    def run(self):
        config = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
        return run_experiment(
            tdown_clique(5),
            config,
            settings=RunSettings(failure_guard=0.5),
            seed=1,
            keep_network=True,
        )

    def test_mentions_all_metric_sections(self, run):
        from repro.experiments.report import describe_run

        text = describe_run(run)
        assert "convergence time" in text
        assert "looping ratio" in text
        assert "updates sent" in text          # churn section (network kept)
        assert "individual loops" in text
        assert "tdown-clique-5" in text

    def test_without_network_omits_churn(self, run):
        from dataclasses import replace

        from repro.experiments.report import describe_run

        stripped = replace(run, network=None)
        text = describe_run(stripped)
        assert "updates sent" not in text
        assert "individual loops" in text
