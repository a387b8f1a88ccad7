"""Unit tests for FIB change logging and epoch reconstruction."""

import pytest

from repro.dataplane import FibChangeLog, ForwardingGraph
from repro.errors import AnalysisError

P = "dest"


@pytest.fixture
def log():
    """A small history: 1->0 at t=0, 2->1 at t=0, 2 flips to 0 at t=5,
    1 loses its route at t=8."""
    log = FibChangeLog()
    log.record(0.0, 1, P, 0)
    log.record(0.0, 2, P, 1)
    log.record(5.0, 2, P, 0)
    log.record(8.0, 1, P, None)
    return log


class TestRecording:
    def test_times_must_be_non_decreasing(self, log):
        with pytest.raises(AnalysisError):
            log.record(7.0, 1, P, 0)

    def test_len_and_iter(self, log):
        assert len(log) == 4
        assert [c.time for c in log] == [0.0, 0.0, 5.0, 8.0]

    def test_changes_for_filters_prefix(self, log):
        log.record(9.0, 1, "other", 2)
        assert len(log.changes_for(P)) == 4
        assert len(log.changes_for("other")) == 1

    def test_change_times_dedups(self, log):
        assert log.change_times(P) == [0.0, 5.0, 8.0]


class TestSnapshot:
    def test_snapshot_initial(self, log):
        graph = log.snapshot_at(P, 0.0)
        assert graph.next_hop(1) == 0
        assert graph.next_hop(2) == 1

    def test_snapshot_mid(self, log):
        graph = log.snapshot_at(P, 6.0)
        assert graph.next_hop(2) == 0

    def test_snapshot_after_route_loss(self, log):
        graph = log.snapshot_at(P, 10.0)
        assert graph.next_hop(1) is None

    def test_snapshot_before_history(self, log):
        graph = log.snapshot_at(P, -1.0)
        assert graph.next_hop(1) is None


class TestEpochs:
    def test_epoch_boundaries(self, log):
        epochs = list(log.epochs(P, 0.0, 10.0))
        spans = [(start, end) for start, end, _graph in epochs]
        assert spans == [(0.0, 5.0), (5.0, 8.0), (8.0, 10.0)]

    def test_epoch_graphs_reflect_changes(self, log):
        epochs = list(log.epochs(P, 0.0, 10.0))
        assert epochs[0][2].next_hop(2) == 1
        assert epochs[1][2].next_hop(2) == 0
        assert epochs[2][2].next_hop(1) is None

    def test_window_not_aligned_to_changes(self, log):
        epochs = list(log.epochs(P, 2.0, 6.0))
        spans = [(start, end) for start, end, _graph in epochs]
        assert spans == [(2.0, 5.0), (5.0, 6.0)]

    def test_changes_at_window_start_are_included_in_first_graph(self, log):
        epochs = list(log.epochs(P, 5.0, 6.0))
        assert len(epochs) == 1
        assert epochs[0][2].next_hop(2) == 0

    def test_empty_window_yields_nothing(self, log):
        assert list(log.epochs(P, 3.0, 3.0)) == []

    def test_backwards_window_raises(self, log):
        with pytest.raises(AnalysisError):
            list(log.epochs(P, 5.0, 1.0))

    def test_graphs_are_copies(self, log):
        first, second = list(log.epochs(P, 0.0, 6.0))[:2]
        assert first[2].next_hop(2) == 1  # not aliased to the later state


class TestForwardingGraph:
    def test_local_delivery_detection(self):
        graph = ForwardingGraph({0: 0, 1: 0})
        assert graph.delivers_locally(0)
        assert not graph.delivers_locally(1)

    def test_nodes_with_route(self):
        graph = ForwardingGraph({0: 0, 1: 0, 2: None})
        assert graph.nodes_with_route() == [0, 1]

    def test_equality_and_copy(self):
        graph = ForwardingGraph({1: 0})
        dup = graph.copy()
        assert dup == graph
        dup.set_next_hop(2, 1)
        assert dup != graph
