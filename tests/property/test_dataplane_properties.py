"""Property-based tests for forwarding graphs, walks, and traffic."""

from hypothesis import given, strategies as st

from repro.core import find_loops
from repro.dataplane import CbrSource, ForwardingGraph, PacketFate, walk

NODES = list(range(10))

functional_graphs = st.dictionaries(
    keys=st.sampled_from(NODES),
    values=st.one_of(st.none(), st.sampled_from(NODES)),
    max_size=10,
)


@given(functional_graphs, st.sampled_from(NODES))
def test_walk_fates_are_consistent(mapping, source):
    graph = ForwardingGraph(mapping)
    result = walk(graph, source, ttl=64)
    if result.fate is PacketFate.DELIVERED:
        assert result.hops <= 64
        assert not result.looped
    elif result.fate is PacketFate.DROPPED_NO_ROUTE:
        assert not result.looped
    else:
        assert result.hops == 64
        # In a <=10-node graph a 64-hop walk must have entered a cycle, and
        # the reported cycle must be a genuine forwarding cycle.
        assert result.loop is not None
        cycle = result.loop
        for index, node in enumerate(cycle):
            assert graph.next_hop(node) == cycle[(index + 1) % len(cycle)]


@given(functional_graphs)
def test_find_loops_returns_all_and_only_cycles(mapping):
    graph = ForwardingGraph(mapping)
    loops = find_loops(graph)
    # Only: every reported loop is a genuine forwarding cycle.
    for cycle in loops:
        for index, node in enumerate(cycle):
            assert graph.next_hop(node) == cycle[(index + 1) % len(cycle)]
        assert len(set(cycle)) == len(cycle)
    # All: any node whose long walk revisits must be covered by some loop.
    members = {node for cycle in loops for node in cycle}
    for source in mapping:
        result = walk(graph, source, ttl=64)
        if result.loop is not None:
            assert set(result.loop) <= members | set(result.loop)
            assert any(set(result.loop) == set(cycle) for cycle in loops)


@given(functional_graphs)
def test_loops_are_disjoint(mapping):
    graph = ForwardingGraph(mapping)
    seen = set()
    for cycle in find_loops(graph):
        assert not (seen & set(cycle))
        seen |= set(cycle)


@given(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_cbr_count_is_additive_over_adjacent_windows(rate, start, a, b, c):
    source = CbrSource(node=1, rate=rate, start=start)
    lo, mid, hi = sorted([a, b, c])
    assert source.count_in(lo, mid) + source.count_in(mid, hi) == source.count_in(
        lo, hi
    )


@given(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_cbr_times_match_count_and_stay_in_window(rate, start, t0, width):
    source = CbrSource(node=1, rate=rate, start=start)
    t1 = t0 + width
    times = list(source.times_in(t0, t1))
    assert len(times) == source.count_in(t0, t1)
    # Tolerance: first_index_at_or_after guards float error with a 1e-12
    # index-space epsilon, so boundary times may be off by ~1e-12 / rate.
    slack = 1e-9
    assert all(t0 - slack <= t < t1 + slack for t in times)
    assert times == sorted(times)
