"""Tests for route-change traces and path-exploration analysis."""

import pytest

from repro.bgp import AsPath, BgpConfig
from repro.core import ExplorationReport, RouteChangeLog
from repro.experiments import RunSettings, run_experiment, tdown_clique

P = "dest"


def path(*ases):
    return AsPath(ases)


@pytest.fixture
def log():
    log = RouteChangeLog()
    # Node 5 explores: (5 0) -> (5 6 0) -> (5 6 7 0) -> loss.
    log.record(0.0, 5, P, None, path(5, 0))
    log.record(10.0, 5, P, path(5, 0), path(5, 6, 0))
    log.record(20.0, 5, P, path(5, 6, 0), path(5, 6, 7, 0))
    log.record(30.0, 5, P, path(5, 6, 7, 0), None)
    # Node 6: one change, then a shortening.
    log.record(10.0, 6, P, None, path(6, 7, 0))
    log.record(15.0, 6, P, path(6, 7, 0), path(6, 0))
    # A different prefix: must not leak into P's report.
    log.record(12.0, 5, "other", None, path(5, 9))
    return log


class TestLogQueries:
    def test_filtering(self, log):
        assert len(log) == 7
        assert len(log.changes(prefix=P)) == 6
        assert len(log.changes(prefix=P, node=5)) == 4
        assert len(log.changes(prefix=P, since=15.0)) == 3


class TestExplorationReport:
    def test_depth_counts_distinct_paths(self, log):
        report = ExplorationReport.from_log(log, P)
        assert report.exploration_depth(5) == 3
        assert report.exploration_depth(6) == 2
        assert report.mean_depth() == pytest.approx(2.5)

    def test_non_shortening_fraction(self, log):
        report = ExplorationReport.from_log(log, P)
        # The same three transitions; only node 6's shortened.
        assert report.non_shortening_fraction() == pytest.approx(2 / 3)

    def test_non_shortening_counts_equal_lengths(self):
        log = RouteChangeLog()
        log.record(0.0, 1, P, path(1, 2, 0), path(1, 3, 0))  # sidestep
        report = ExplorationReport.from_log(log, P)
        assert report.non_shortening_fraction() == 1.0

    def test_since_restricts_window(self, log):
        report = ExplorationReport.from_log(log, P, since=15.0)
        assert report.exploration_depth(5) == 1  # only (5 6 7 0)
        assert sorted(report.per_node_sequences) == [5, 6]

    def test_longest_path_explored(self, log):
        report = ExplorationReport.from_log(log, P)
        assert report.longest_path_explored() == 4

    def test_changes_per_node(self, log):
        report = ExplorationReport.from_log(log, P)
        assert report.changes_per_node() == {5: 4, 6: 2}

    def test_empty_report(self):
        report = ExplorationReport.from_log(RouteChangeLog(), P)
        assert sorted(report.per_node_sequences) == []
        assert report.mean_depth() == 0.0
        assert report.non_shortening_fraction() == 0.0


class TestOnRealRun:
    @pytest.fixture(scope="class")
    def run(self):
        config = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
        return run_experiment(
            tdown_clique(6), config, RunSettings(failure_guard=0.5), seed=4
        )

    def test_tdown_exploration_never_shortens(self, run):
        report = ExplorationReport.from_log(
            run.route_log, "dest", since=run.failure_time
        )
        assert max(report.exploration_depth(n) for n in report.per_node_sequences) >= 2
        # Tdown exploration may sidestep between equal-length obsolete
        # paths but never adopts a strictly shorter one, and it does reach
        # paths longer than the two-hop ones held before the failure.
        assert report.non_shortening_fraction() == 1.0
        assert report.longest_path_explored() > 2

    def test_every_node_ends_with_a_loss(self, run):
        for node in run.scenario.topology.nodes:
            sequence = run.route_log.changes(
                prefix="dest", node=node, since=run.failure_time
            )
            assert sequence, f"node {node} logged no changes"
            assert sequence[-1].new_path is None

    def test_warmup_changes_also_recorded(self, run):
        warmup = run.route_log.changes(prefix="dest")
        assert any(c.old_path is None and c.new_path is not None for c in warmup)
