"""Unit tests for LoopStudyResult."""

import pytest

from repro.core import ConvergenceReport, LoopStudyResult
from repro.core.loop_detector import LoopInterval
from repro.dataplane import DataPlaneReport


def convergence(failure=10.0, last=40.0, count=12):
    return ConvergenceReport(
        failure_time=failure,
        first_update_time=failure if count else None,
        last_update_time=last if count else None,
        update_count=count,
        announcement_count=count - 2,
        withdrawal_count=2 if count else 0,
    )


def dataplane(sent=100, exhausted=40, first=12.0, last=38.0):
    report = DataPlaneReport(window=(10.0, 40.0))
    report.packets_sent = sent
    report.ttl_exhaustions = exhausted
    report.delivered = sent - exhausted
    report.first_exhaustion = first if exhausted else None
    report.last_exhaustion = last if exhausted else None
    return report


def result(**kwargs):
    intervals = kwargs.pop(
        "intervals",
        [
            LoopInterval(cycle=(1, 2), start=12.0, end=20.0),
            LoopInterval(cycle=(3, 4, 5), start=15.0, end=38.0),
        ],
    )
    return LoopStudyResult(
        convergence=kwargs.pop("convergence", convergence()),
        dataplane=kwargs.pop("dataplane", dataplane()),
        loop_intervals=intervals,
        total_messages=kwargs.pop("total_messages", 50),
    )


class TestMetrics:
    def test_the_four_paper_metrics(self):
        r = result()
        assert r.convergence_time == 30.0
        assert r.overall_looping_duration == 26.0
        assert r.ttl_exhaustions == 40
        assert r.looping_ratio == pytest.approx(0.4)

    def test_loop_statistics(self):
        r = result()
        assert r.distinct_loop_count == 2

    def test_no_loops_edge_case(self):
        r = result(dataplane=dataplane(exhausted=0), intervals=[])
        assert r.overall_looping_duration == 0.0
        assert r.looping_ratio == 0.0
        assert r.distinct_loop_count == 0

    def test_summary_row_keys(self):
        row = result().summary_row()
        assert set(row) == {
            "convergence_time",
            "looping_duration",
            "ttl_exhaustions",
            "looping_ratio",
            "packets_sent",
            "updates_sent",
            "distinct_loops",
        }
        assert row["ttl_exhaustions"] == 40.0
