"""Property tests for the data-plane evaluators and loop statistics.

The change-driven evaluators (``EpochEvaluator``, ``loop_timeline``,
``TrafficMatrixEvaluator``) are checked against an *oracle*: the naive
per-epoch answer, rebuilt here from the public snapshot pieces they no
longer use — ``FibChangeLog.epochs``/``multi_epochs``, ``walk``/``walk_lpm``
and ``find_loops`` — and compared as whole reports, not as digests.  They run
100 examples each in tier-1; ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``) runs 2 000 nightly.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LoopStatistics, find_loops, loop_timeline
from repro.core.loop_detector import LoopInterval
from repro.dataplane import (
    CbrSource,
    DataPlaneReport,
    EpochEvaluator,
    FibChangeLog,
    Flow,
    LoopSighting,
    PacketFate,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    TrafficReport,
    walk,
    walk_lpm,
)
from repro.dataplane.traffic_eval import EpochTraffic
from repro.prefixes import parse_prefix
from repro.topology import DEFAULT_LINK_DELAY

P = "dest"

fib_histories = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=5),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    ),
    max_size=25,
)

source_sets = st.lists(
    st.builds(
        CbrSource,
        node=st.integers(min_value=0, max_value=5),
        rate=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
        start=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=4,
)


def build_log(changes):
    log = FibChangeLog()
    for time, node, hop in sorted(changes, key=lambda c: c[0]):
        log.record(time, node, P, hop)
    return log


@given(fib_histories, source_sets, st.floats(min_value=0.0, max_value=40.0),
       st.floats(min_value=0.0, max_value=20.0))
def test_packet_fates_are_conserved(changes, sources, start, width):
    """delivered + dropped + exhausted == packets sent, always."""
    log = build_log(changes)
    report = EpochEvaluator(log, P, sources, ttl=32).evaluate(start, start + width)
    assert (
        report.delivered + report.dropped_no_route + report.ttl_exhaustions
        == report.packets_sent
    )
    expected = sum(s.count_in(start, start + width) for s in sources)
    assert report.packets_sent == expected


@given(fib_histories, source_sets)
def test_looping_ratio_bounded(changes, sources):
    log = build_log(changes)
    report = EpochEvaluator(log, P, sources, ttl=32).evaluate(0.0, 30.0)
    assert 0.0 <= report.looping_ratio <= 1.0
    assert 0.0 <= report.delivery_ratio <= 1.0


@given(fib_histories, source_sets)
def test_exhaustion_timestamps_ordered(changes, sources):
    log = build_log(changes)
    report = EpochEvaluator(log, P, sources, ttl=32).evaluate(0.0, 30.0)
    if report.ttl_exhaustions:
        assert report.first_exhaustion is not None
        assert report.last_exhaustion is not None
        assert report.first_exhaustion <= report.last_exhaustion
    else:
        assert report.first_exhaustion is None
        assert report.overall_looping_duration == 0.0


intervals = st.lists(
    st.builds(
        lambda cycle, start, dur: LoopInterval(
            cycle=tuple(sorted(cycle)), start=start, end=start + dur
        ),
        cycle=st.sets(st.integers(min_value=0, max_value=20), min_size=2, max_size=5),
        start=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        dur=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    max_size=15,
)


@given(intervals, intervals)
def test_loop_statistics_merge_is_additive(a, b):
    stats_a = LoopStatistics.from_intervals(a)
    stats_b = LoopStatistics.from_intervals(b)
    merged = LoopStatistics.merge([stats_a, stats_b])
    assert merged.count == stats_a.count + stats_b.count
    assert merged.total_loop_seconds() == pytest.approx(
        stats_a.total_loop_seconds() + stats_b.total_loop_seconds()
    )
    for size, count in stats_a.size_histogram().items():
        assert merged.size_histogram()[size] >= count


@given(intervals)
def test_two_node_share_in_unit_interval(a):
    stats = LoopStatistics.from_intervals(a)
    assert 0.0 <= stats.two_node_share() <= 1.0
    if stats.count:
        histogram = stats.size_histogram()
        assert sum(histogram.values()) == stats.count


# ----------------------------------------------------------------------
# Oracle properties: change-driven evaluation == naive per-epoch evaluation
# ----------------------------------------------------------------------

NODES = st.integers(min_value=0, max_value=4)
HOPS = st.one_of(st.none(), NODES)  # None, a neighbor, or the node itself
# A half-second grid makes same-instant bursts, re-forming cycles and
# windows that start or end exactly on a change instant the common case.
GRID = st.integers(min_value=0, max_value=20).map(lambda tick: tick * 0.5)
TTLS = st.sampled_from([1, 2, 3, 32, 128])
# Windows: the whole history and beyond (the last change is at 10.0), or a
# start on the grid with a width that may be zero.
WINDOWS = st.one_of(
    st.just((0.0, 15.0)),
    st.tuples(GRID, st.sampled_from([0.0, 0.5, 2.5, 6.0, 15.0])).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
)
RATES = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
PHASES = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def histories(change):
    """Short logs (down to empty) or dense ones: hypothesis' default list
    sizes average five changes, too few for a change to land on a walk."""
    return st.one_of(
        st.lists(change, max_size=6), st.lists(change, min_size=15, max_size=45)
    )


bursty_histories = histories(st.tuples(GRID, NODES, HOPS))
# Sources share nodes, sit on nodes the log never mentions (5, 6) and on
# whichever node happens to deliver.
oracle_sources = st.lists(
    st.builds(
        CbrSource,
        node=st.integers(min_value=0, max_value=6),
        rate=RATES,
        start=PHASES,
    ),
    min_size=1,
    max_size=6,
)


def naive_dataplane_report(log, sources, ttl, start, end):
    """Every source walked from scratch in every epoch, accounted per epoch."""
    report = DataPlaneReport(window=(start, end))
    death = ttl * DEFAULT_LINK_DELAY
    stamps = []
    for t0, t1, graph in log.epochs(P, start, end):
        for source in sources:
            count = source.count_in(t0, t1)
            if not count:
                continue
            result = walk(graph, source.node, ttl)
            report.packets_sent += count
            if result.fate is PacketFate.DELIVERED:
                report.record_delivery(result.hops, count)
                continue
            if result.fate is PacketFate.DROPPED_NO_ROUTE:
                report.dropped_no_route += count
                continue
            report.ttl_exhaustions += count
            report.per_source_exhaustions[source.node] = (
                report.per_source_exhaustions.get(source.node, 0) + count
            )
            first = source.departure_time(source.first_index_at_or_after(t0)) + death
            last = source.departure_time(source.first_index_at_or_after(t1) - 1) + death
            stamps += [first, last]
            if result.loop is not None:
                sighting = report.loops.setdefault(
                    result.loop, LoopSighting(cycle=result.loop)
                )
                sighting.packets_lost += count
                sighting.first_seen = min(sighting.first_seen, first)
                sighting.last_seen = max(sighting.last_seen, last)
    if stamps:
        report.first_exhaustion, report.last_exhaustion = min(stamps), max(stamps)
    return report


@settings(deadline=None)
@given(bursty_histories, oracle_sources, TTLS, WINDOWS)
def test_epoch_evaluator_equals_naive_per_epoch_walks(changes, sources, ttl, window):
    log = build_log(changes)
    evaluator = EpochEvaluator(log, P, sources, ttl=ttl)
    expected = naive_dataplane_report(log, sources, ttl, *window)
    assert asdict(evaluator.evaluate(*window)) == asdict(expected)


def naive_loop_timeline(log, start, end):
    """``find_loops`` on every epoch's snapshot, lifetimes merged."""
    opened, finished = {}, []
    for t0, _t1, graph in log.epochs(P, start, end):
        present = set(find_loops(graph))
        for cycle in present:
            opened.setdefault(cycle, t0)
        for cycle in [c for c in opened if c not in present]:
            finished.append(LoopInterval(cycle, opened.pop(cycle), t0))
    finished += [LoopInterval(cycle, since, end) for cycle, since in opened.items()]
    return sorted(finished, key=lambda i: (i.start, i.cycle))


@settings(deadline=None)
@given(bursty_histories, WINDOWS)
def test_loop_timeline_equals_find_loops_on_every_epoch(changes, window):
    log = build_log(changes)
    assert loop_timeline(log, P, *window) == naive_loop_timeline(log, *window)


# A /22 cover over two /24 specifics, a /23 between them, and opaque names.
PREFIXES = ["00000000/22", "00000000/23", "00000000/24", "00000100/24", "dest", "other"]
# Addresses in each /24, one only the /22 covers, one nothing covers, and
# opaque destinations with and without a FIB entry.
DESTINATIONS = [0x00000050, 0x00000150, 0x00000250, 0x00010000, "dest", "nowhere"]

multi_histories = histories(st.tuples(GRID, NODES, st.sampled_from(PREFIXES), HOPS))
# Small domains: repeated (destination, source) pairs come out routinely.
oracle_flows = st.lists(
    st.builds(
        Flow,
        source=st.integers(min_value=0, max_value=6),
        prefix=st.sampled_from(PREFIXES),
        destination=st.sampled_from(DESTINATIONS),
        rate=RATES,
        start=PHASES,
    ),
    min_size=1,
    max_size=8,
)


def build_multi_log(changes):
    log = FibChangeLog()
    for time, node, prefix, hop in sorted(changes, key=lambda c: c[0]):
        log.record(time, node, prefix, hop)
    return log


def touches(prefix, destination):
    spec = parse_prefix(prefix)
    if spec is None or not isinstance(destination, int):
        return prefix == destination
    return spec.contains(destination)


def naive_traffic_report(log, matrix, ttl, start, end, rows):
    """Every flow walked hop-by-hop by LPM in every multi-prefix epoch.

    Rows merge abutting epochs until one opens with a change to a prefix
    that covers (or names) some destination of the matrix.
    """
    report = TrafficReport(
        window=(start, end), flows=len(matrix.flows), prefixes=len(matrix.prefixes())
    )
    merged = []  # [start, end, delivered, blackholed, looped]
    for t0, t1, fib, changed in log.multi_epochs(start, end):
        tally = {fate: 0 for fate in PacketFate}
        for flow in matrix.flows:
            fate = walk_lpm(fib, flow.source, flow.destination, ttl).fate
            tally[fate] += flow.as_cbr().count_in(t0, t1)
        counts = [
            tally[PacketFate.DELIVERED],
            tally[PacketFate.DROPPED_NO_ROUTE],
            tally[PacketFate.TTL_EXPIRED],
        ]
        splits = any(touches(p, f.destination) for p in changed for f in matrix.flows)
        if merged and not splits:
            merged[-1][1] = t1
            merged[-1][2:] = [a + b for a, b in zip(merged[-1][2:], counts)]
        else:
            merged.append([t0, t1, *counts])
    for t0, t1, delivered, blackholed, looped in merged:
        report.delivered += delivered
        report.blackholed += blackholed
        report.looped += looped
        if rows:
            report.epoch_rows.append(
                EpochTraffic(
                    t0, t1, delivered + blackholed + looped, delivered, blackholed, looped
                )
            )
    report.offered = report.delivered + report.blackholed + report.looped
    return report


@settings(deadline=None)
@given(multi_histories, oracle_flows, TTLS, WINDOWS, st.booleans())
def test_traffic_evaluator_equals_naive_per_epoch_lpm_walks(
    changes, flows, ttl, window, rows
):
    log = build_multi_log(changes)
    matrix = TrafficMatrix(flows=tuple(flows))
    evaluator = TrafficMatrixEvaluator(log, matrix, ttl=ttl, epoch_rows=rows)
    expected = naive_traffic_report(log, matrix, ttl, *window, rows)
    assert asdict(evaluator.evaluate(*window)) == asdict(expected)
