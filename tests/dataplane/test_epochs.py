"""Unit tests for the epoch-based data-plane evaluator."""

import pytest

from repro.dataplane import CbrSource, EpochEvaluator, FibChangeLog
from repro.errors import AnalysisError

P = "dest"


def make_log(changes):
    log = FibChangeLog()
    for time, node, next_hop in changes:
        log.record(time, node, P, next_hop)
    return log


def evaluator(log, sources, ttl=128, hop_delay=0.002):
    return EpochEvaluator(log, P, sources, ttl=ttl, hop_delay=hop_delay)


class TestStableRouting:
    def test_all_delivered_on_stable_tree(self):
        log = make_log([(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 1)])
        sources = [CbrSource(node=1, rate=10.0), CbrSource(node=2, rate=10.0)]
        report = evaluator(log, sources).evaluate(0.0, 10.0)
        assert report.packets_sent == 200
        assert report.delivered == 200
        assert report.ttl_exhaustions == 0
        assert report.looping_ratio == 0.0
        assert report.overall_looping_duration == 0.0
        assert report.delivery_ratio == 1.0

    def test_unrouted_source_drops(self):
        log = make_log([(0.0, 0, 0)])
        report = evaluator(log, [CbrSource(node=5, rate=10.0)]).evaluate(0.0, 1.0)
        assert report.dropped_no_route == 10


class TestLoopAccounting:
    def test_loop_epoch_counts_exhaustions(self):
        # 1<->2 loop for t in [0, 5); then 1 -> 0 (delivery) afterwards.
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 1), (5.0, 1, 0)]
        )
        source = CbrSource(node=2, rate=10.0)
        report = evaluator(log, [source]).evaluate(0.0, 10.0)
        assert report.packets_sent == 100
        assert report.ttl_exhaustions == 50   # packets sent in [0, 5)
        assert report.delivered == 50
        assert report.looping_ratio == pytest.approx(0.5)

    def test_exhaustion_timestamps_span_loop_lifetime(self):
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 1), (5.0, 1, 0)]
        )
        source = CbrSource(node=2, rate=10.0)
        report = evaluator(log, [source], ttl=128, hop_delay=0.002).evaluate(0.0, 10.0)
        death_offset = 128 * 0.002
        assert report.first_exhaustion == pytest.approx(0.0 + death_offset)
        assert report.last_exhaustion == pytest.approx(4.9 + death_offset)
        assert report.overall_looping_duration == pytest.approx(4.9)

    def test_loop_sightings_aggregated(self):
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 1), (5.0, 1, 0)]
        )
        sources = [CbrSource(node=1, rate=10.0), CbrSource(node=2, rate=10.0)]
        report = evaluator(log, sources).evaluate(0.0, 10.0)
        loops = list(report.loops.values())
        assert len(loops) == 1
        assert loops[0].cycle == (1, 2)
        assert loops[0].packets_lost == 100
        assert loops[0].size == 2
        assert loops[0].last_seen > loops[0].first_seen

    def test_per_source_exhaustions(self):
        log = make_log([(0.0, 1, 2), (0.0, 2, 1)])
        sources = [CbrSource(node=1, rate=10.0), CbrSource(node=2, rate=5.0)]
        report = evaluator(log, sources).evaluate(0.0, 2.0)
        assert report.per_source_exhaustions == {1: 20, 2: 10}


class TestWindows:
    def test_empty_window_counts_nothing(self):
        log = make_log([(0.0, 1, 2), (0.0, 2, 1)])
        report = evaluator(log, [CbrSource(node=1)]).evaluate(5.0, 5.0)
        assert report.packets_sent == 0
        assert report.looping_ratio == 0.0

    def test_backwards_window_raises(self):
        log = make_log([(0.0, 1, 0)])
        with pytest.raises(AnalysisError):
            evaluator(log, [CbrSource(node=1)]).evaluate(5.0, 1.0)

    def test_no_sources_rejected(self):
        with pytest.raises(AnalysisError):
            evaluator(make_log([]), [])

    def test_counts_respect_window_boundaries(self):
        log = make_log([(0.0, 0, 0), (0.0, 1, 0)])
        report = evaluator(log, [CbrSource(node=1, rate=10.0)]).evaluate(2.0, 3.0)
        assert report.packets_sent == 10


class TestChangeDriven:
    """The traps of re-walking only what a FIB change can reach.

    A walk must be invalidated by a change at *any* node whose next hop it
    read; each case below moves exactly one such node.
    """

    def test_change_at_the_terminal_node_reaches_every_walk_ending_there(self):
        # 2 -> 1 -> 0 delivers; then 0 itself loses its entry.
        log = make_log([(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 1), (1.0, 0, None)])
        sources = [CbrSource(node=0), CbrSource(node=1), CbrSource(node=2)]
        report = evaluator(log, sources).evaluate(0.0, 2.0)
        assert report.delivered == 30
        assert report.dropped_no_route == 30
        assert report.delivered_hops == {0: 10, 1: 10, 2: 10}

    def test_change_at_a_no_route_terminal_is_seen(self):
        # 2 -> 1 and 1 has no entry; then 1 learns a route.
        log = make_log([(0.0, 0, 0), (0.0, 2, 1), (1.0, 1, 0)])
        report = evaluator(log, [CbrSource(node=2)]).evaluate(0.0, 2.0)
        assert (report.dropped_no_route, report.delivered) == (10, 10)

    def test_change_at_the_re_entered_node_breaks_the_loop(self):
        # 1 -> 2 -> 3 -> 2: the walk from 1 re-enters 2; then 2 -> 0 heals it.
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 3), (0.0, 3, 2), (1.0, 2, 0)]
        )
        report = evaluator(log, [CbrSource(node=1)]).evaluate(0.0, 2.0)
        assert report.ttl_exhaustions == 10
        assert report.loops[(2, 3)].packets_lost == 10
        assert report.delivered_hops == {2: 10}

    def test_change_at_a_cycle_member_past_the_re_entry_is_seen(self):
        # Same loop, but the member that moves is 3, the last hop read.
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 3), (0.0, 3, 2), (1.0, 3, 0)]
        )
        report = evaluator(log, [CbrSource(node=1)]).evaluate(0.0, 2.0)
        assert report.ttl_exhaustions == 10
        assert report.delivered_hops == {3: 10}

    def test_path_length_death_depends_on_the_last_node_consulted(self):
        # ttl=2 dies on 1 -> 2 -> 3 -> 4 -> 0 when 3's entry says "onwards";
        # once 3 delivers locally the same packets arrive after two hops.
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 3), (0.0, 3, 4), (0.0, 4, 0),
             (1.0, 3, 3)]
        )
        report = evaluator(log, [CbrSource(node=1)], ttl=2).evaluate(0.0, 2.0)
        assert report.ttl_exhaustions == 10 and report.loops == {}
        assert report.delivered_hops == {2: 10}

    def test_changes_of_one_instant_are_applied_before_any_re_walk(self):
        # At t=1 both 1 and 2 move.  The state between the two records
        # (2 -> 1 -> nowhere) never existed for a packet, and 2 — invalidated
        # by both changes — is accounted once.
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 1), (1.0, 1, None), (1.0, 2, 0)]
        )
        source = CbrSource(node=2)
        ev = evaluator(log, [source])
        report = ev.evaluate(0.0, 2.0)
        assert report.packets_sent == source.count_in(0.0, 2.0) == 20
        assert report.dropped_no_route == 0
        assert report.delivered_hops == {2: 10, 1: 10}
        assert (ev.walks, ev.walks_invalidated, ev.change_instants) == (2, 1, 2)

    def test_sources_sharing_a_node_share_one_walk(self):
        log = make_log([(0.0, 0, 0), (0.0, 1, 0)])
        sources = [CbrSource(node=1, rate=10.0), CbrSource(node=1, rate=4.0, start=0.1)]
        ev = evaluator(log, sources)
        report = ev.evaluate(0.0, 5.0)
        assert report.delivered == 50 + sources[1].count_in(0.0, 5.0)
        assert ev.walks == 1

    def test_sources_off_the_log_and_on_the_destination(self):
        log = make_log([(0.0, 0, 0), (0.0, 1, 0), (1.0, 1, None), (2.0, 1, 0)])
        sources = [CbrSource(node=0), CbrSource(node=9)]
        ev = evaluator(log, sources)
        report = ev.evaluate(0.0, 3.0)
        assert report.delivered_hops == {0: 30}
        assert report.dropped_no_route == 30
        # Neither walk reads node 1, so its flapping re-walks nothing.
        assert (ev.walks, ev.walks_invalidated) == (2, 0)

    def test_window_edges_absorb_at_start_and_ignore_at_end(self):
        # The change at t == start is in force from the first packet; the
        # one at t == end belongs to the next window.
        log = make_log([(0.0, 0, 0), (1.0, 1, 0), (2.0, 1, None)])
        report = evaluator(log, [CbrSource(node=1)]).evaluate(1.0, 2.0)
        assert (report.delivered, report.dropped_no_route) == (10, 0)
        later = evaluator(log, [CbrSource(node=1)]).evaluate(2.0, 9.0)
        assert (later.delivered, later.dropped_no_route) == (0, 70)

    def test_empty_window_is_the_empty_report(self):
        from repro.dataplane import DataPlaneReport

        log = make_log([(0.0, 1, 2), (0.0, 2, 1)])
        report = evaluator(log, [CbrSource(node=1)]).evaluate(5.0, 5.0)
        assert report == DataPlaneReport(window=(5.0, 5.0))

    def test_one_instance_evaluates_several_windows_independently(self):
        log = make_log(
            [(0.0, 0, 0), (0.0, 1, 2), (0.0, 2, 1), (5.0, 1, 0), (7.0, 2, None)]
        )
        sources = [CbrSource(node=1), CbrSource(node=2)]
        shared = evaluator(log, sources)
        for window in [(0.0, 10.0), (6.0, 8.0), (0.0, 10.0), (2.0, 2.0)]:
            assert shared.evaluate(*window) == evaluator(log, sources).evaluate(*window)
