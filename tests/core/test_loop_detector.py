"""Unit tests for forwarding-loop detection."""

import pytest

from repro.core import (
    find_loops,
    is_loop_free,
    longest_loop_duration,
    loop_size_histogram,
    loop_timeline,
)
from repro.core.loop_detector import LoopInterval
from repro.dataplane import FibChangeLog, ForwardingGraph
from repro.errors import AnalysisError

P = "dest"


class TestFindLoops:
    def test_tree_is_loop_free(self):
        graph = ForwardingGraph({0: 0, 1: 0, 2: 0, 3: 1})
        assert find_loops(graph) == []
        assert is_loop_free(graph)

    def test_two_node_loop(self):
        graph = ForwardingGraph({5: 6, 6: 5})
        assert find_loops(graph) == [(5, 6)]

    def test_long_loop(self):
        graph = ForwardingGraph({1: 2, 2: 3, 3: 1})
        assert find_loops(graph) == [(1, 2, 3)]

    def test_multiple_disjoint_loops(self):
        graph = ForwardingGraph({1: 2, 2: 1, 7: 8, 8: 9, 9: 7})
        assert find_loops(graph) == [(1, 2), (7, 8, 9)]

    def test_tail_into_loop_not_in_cycle(self):
        graph = ForwardingGraph({0: 1, 1: 2, 2: 1})
        assert find_loops(graph) == [(1, 2)]

    def test_local_delivery_is_not_a_loop(self):
        graph = ForwardingGraph({0: 0, 1: 0})
        assert find_loops(graph) == []

    def test_no_route_entries_ignored(self):
        graph = ForwardingGraph({1: None, 2: 1})
        assert find_loops(graph) == []

    def test_each_loop_reported_once(self):
        # Many tails into one loop must not duplicate it.
        graph = ForwardingGraph({1: 2, 2: 1, 3: 1, 4: 2, 5: 4})
        assert find_loops(graph) == [(1, 2)]


class TestLoopTimeline:
    def make_log(self):
        """Loop (1,2) alive over [1, 4); loop (3,4) alive over [2, 6)."""
        log = FibChangeLog()
        log.record(0.0, 0, P, 0)
        log.record(1.0, 1, P, 2)
        log.record(1.0, 2, P, 1)
        log.record(2.0, 3, P, 4)
        log.record(2.0, 4, P, 3)
        log.record(4.0, 1, P, 0)
        log.record(6.0, 4, P, 0)
        return log

    def test_intervals(self):
        intervals = loop_timeline(self.make_log(), P, 0.0, 10.0)
        by_cycle = {i.cycle: (i.start, i.end) for i in intervals}
        assert by_cycle == {(1, 2): (1.0, 4.0), (3, 4): (2.0, 6.0)}

    def test_open_loop_clipped_to_window_end(self):
        log = FibChangeLog()
        log.record(1.0, 1, P, 2)
        log.record(1.0, 2, P, 1)
        intervals = loop_timeline(log, P, 0.0, 5.0)
        assert intervals == [LoopInterval(cycle=(1, 2), start=1.0, end=5.0)]

    def test_reforming_loop_gets_two_intervals(self):
        log = FibChangeLog()
        log.record(1.0, 1, P, 2)
        log.record(1.0, 2, P, 1)
        log.record(2.0, 1, P, None)   # loop dies
        log.record(3.0, 1, P, 2)      # same loop re-forms
        log.record(4.0, 1, P, None)
        intervals = loop_timeline(log, P, 0.0, 5.0)
        assert [(i.start, i.end) for i in intervals] == [(1.0, 2.0), (3.0, 4.0)]

    def test_empty_window(self):
        assert loop_timeline(self.make_log(), P, 3.0, 3.0) == []

    def test_backwards_window_raises(self):
        with pytest.raises(AnalysisError):
            loop_timeline(self.make_log(), P, 5.0, 1.0)

    def test_helpers(self):
        intervals = loop_timeline(self.make_log(), P, 0.0, 10.0)
        assert longest_loop_duration(intervals) == 4.0
        assert loop_size_histogram(intervals) == {2: 2}
        assert longest_loop_duration([]) == 0.0


class TestLoopTimelineIsChangeDriven:
    """After the scan at ``start`` only changed nodes are followed; these are
    the cases where that could lose or invent a loop."""

    @staticmethod
    def log_of(changes):
        log = FibChangeLog()
        for time, node, hop in changes:
            log.record(time, node, P, hop)
        return log

    def test_broken_and_re_formed_within_one_instant_is_one_interval(self):
        log = self.log_of(
            [(1.0, 1, 2), (1.0, 2, 1), (2.0, 1, None), (2.0, 1, 2), (3.0, 2, 2)]
        )
        assert loop_timeline(log, P, 0.0, 5.0) == [LoopInterval((1, 2), 1.0, 3.0)]

    def test_a_tail_joining_a_live_cycle_opens_nothing(self):
        log = self.log_of([(1.0, 1, 2), (1.0, 2, 1), (2.0, 3, 1), (3.0, 3, None)])
        assert loop_timeline(log, P, 0.0, 5.0) == [LoopInterval((1, 2), 1.0, 5.0)]

    def test_the_last_changed_member_closes_the_cycle(self):
        log = self.log_of([(1.0, 1, 2), (2.0, 2, 3), (3.0, 3, 1)])
        assert loop_timeline(log, P, 0.0, 5.0) == [LoopInterval((1, 2, 3), 3.0, 5.0)]

    def test_every_changed_node_of_an_instant_is_followed(self):
        # Two nodes move at t=2; only the second one closes a cycle.
        log = self.log_of([(1.0, 6, 5), (2.0, 1, None), (2.0, 5, 6)])
        assert loop_timeline(log, P, 0.0, 5.0) == [LoopInterval((5, 6), 2.0, 5.0)]

    def test_one_change_breaks_one_cycle_and_forms_another(self):
        log = self.log_of([(1.0, 3, 1), (1.0, 1, 2), (1.0, 2, 1), (2.0, 2, 3)])
        assert loop_timeline(log, P, 0.0, 5.0) == [
            LoopInterval((1, 2), 1.0, 2.0),
            LoopInterval((1, 2, 3), 2.0, 5.0),
        ]

    def test_a_member_that_starts_delivering_breaks_its_cycle(self):
        log = self.log_of([(1.0, 1, 1), (2.0, 1, 2), (2.0, 2, 1), (3.0, 2, 2)])
        assert loop_timeline(log, P, 0.0, 5.0) == [LoopInterval((1, 2), 2.0, 3.0)]

    def test_window_edges(self):
        log = self.log_of([(0.0, 1, 2), (0.0, 2, 1), (2.0, 3, 4), (2.0, 4, 3), (4.0, 1, 1)])
        # Alive before the window: found by the scan at start, clipped to it.
        # A change at t == start is absorbed, one at t == end is ignored.
        assert loop_timeline(log, P, 2.0, 4.0) == [
            LoopInterval((1, 2), 2.0, 4.0),
            LoopInterval((3, 4), 2.0, 4.0),
        ]
        assert loop_timeline(log, P, 4.0, 4.0) == []
        assert loop_timeline(log, P, 4.0, 9.0) == [LoopInterval((3, 4), 4.0, 9.0)]

    def test_find_loops_scans_the_graph_once_per_call(self, monkeypatch):
        from repro.core import loop_detector

        calls = []

        def counting(graph):
            calls.append(graph)
            return find_loops(graph)

        monkeypatch.setattr(loop_detector, "find_loops", counting)
        log = self.log_of(
            [(float(t), 1 + t % 3, 1 + (t + 1) % 3) for t in range(12)]
        )
        assert len(log.change_times(P)) == 12
        assert loop_timeline(log, P, 0.0, 20.0)
        assert len(calls) == 1
