"""Unit tests for convergence measurement."""

from repro.bgp import Announcement, AsPath, Withdrawal
from repro.core import UpdateChurn, measure_convergence
from repro.net import MessageTrace


def ann():
    return Announcement(prefix="d", path=AsPath((1, 0)))


def wd():
    return Withdrawal(prefix="d")


class TestMeasurement:
    def test_basic_window(self):
        trace = MessageTrace()
        trace.record(1.0, 0, 1, ann())   # warm-up, excluded
        trace.record(10.0, 0, 1, wd())
        trace.record(12.0, 1, 2, ann())
        trace.record(15.5, 2, 1, wd())
        report = measure_convergence(trace, failure_time=10.0)
        assert report.convergence_time == 5.5
        assert report.first_update_time == 10.0
        assert report.update_count == 3
        assert report.convergence_end == 15.5
        churn = UpdateChurn.from_trace(trace, failure_time=10.0)
        assert churn.announcements == 1
        assert churn.withdrawals == 2

    def test_silent_convergence(self):
        trace = MessageTrace()
        trace.record(1.0, 0, 1, ann())
        report = measure_convergence(trace, failure_time=10.0)
        assert report.convergence_time == 0.0
        assert report.update_count == 0
        assert report.convergence_end == 10.0

    def test_non_update_messages_ignored(self):
        trace = MessageTrace()
        trace.record(11.0, 0, 1, "keepalive")
        trace.record(12.0, 0, 1, ann())
        report = measure_convergence(trace, failure_time=10.0)
        assert report.update_count == 1
        assert report.first_update_time == 12.0

    def test_update_exactly_at_failure_time_counts(self):
        trace = MessageTrace()
        trace.record(10.0, 0, 1, wd())
        report = measure_convergence(trace, failure_time=10.0)
        assert report.update_count == 1
