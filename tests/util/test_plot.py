"""Unit tests for ASCII charts."""

import pytest

from repro.errors import AnalysisError
from repro.util import ascii_chart


class TestAsciiChart:
    def test_basic_render(self):
        text = ascii_chart([0, 5, 10], [("line", [0.0, 5.0, 10.0])], width=20, height=5)
        lines = text.splitlines()
        assert any("*" in line for line in lines)
        assert "line" in lines[-1]            # legend
        assert lines[-3].lstrip().startswith("+")  # x-axis rule

    def test_title_included(self):
        text = ascii_chart([0, 1], [("y", [1.0, 2.0])], title="My Chart")
        assert text.splitlines()[0] == "My Chart"

    def test_extremes_land_on_corners(self):
        text = ascii_chart([0, 10], [("y", [0.0, 10.0])], width=10, height=4)
        rows = [line.split("|", 1)[1] for line in text.splitlines() if "|" in line]
        assert rows[0][-1] == "*"   # max y at max x: top-right
        assert rows[-1][0] == "*"   # min y at min x: bottom-left

    def test_multiple_series_get_distinct_markers(self):
        text = ascii_chart(
            [0, 1, 2], [("a", [0, 1, 2]), ("b", [2, 1, 0])], width=15, height=5
        )
        assert "*" in text and "o" in text
        assert "a" in text and "b" in text

    def test_axis_labels_show_ranges(self):
        text = ascii_chart([2, 8], [("y", [10.0, 30.0])], width=20, height=5)
        assert "30" in text and "10" in text   # y range
        assert "2" in text and "8" in text     # x range

    def test_flat_series_renders(self):
        text = ascii_chart([0, 1, 2], [("y", [5.0, 5.0, 5.0])], width=12, height=4)
        assert "*" in text

    def test_nan_points_skipped(self):
        text = ascii_chart([0, 1, 2], [("y", [1.0, float("nan"), 3.0])])
        assert "*" in text

    def test_validation(self):
        with pytest.raises(AnalysisError):
            ascii_chart([], [("y", [])])
        with pytest.raises(AnalysisError):
            ascii_chart([1], [("y", [1.0, 2.0])])
        with pytest.raises(AnalysisError):
            ascii_chart([1], [("y", [1.0])], width=2)
        with pytest.raises(AnalysisError):
            ascii_chart([1], [(f"s{i}", [1.0]) for i in range(9)])
        with pytest.raises(AnalysisError):
            ascii_chart([1, 2], [("y", [float("nan"), float("nan")])])


class TestFigurePlot:
    def test_figure_data_plot(self):
        from repro.experiments import FigureData

        figure = FigureData(
            figure_id="f",
            title="t",
            x_label="x",
            xs=[1.0, 2.0, 3.0],
            series={"conv": [10.0, 20.0, 30.0], "bad": [1.0, float("inf"), 2.0]},
        )
        text = figure.plot()
        assert "conv" in text
        assert "bad" not in text  # non-finite series skipped

    def test_figure_plot_with_nothing_drawable(self):
        from repro.experiments import FigureData

        figure = FigureData(
            figure_id="f",
            title="t",
            x_label="x",
            xs=[1.0],
            series={"bad": [float("inf")]},
        )
        with pytest.raises(AnalysisError):
            figure.plot()
