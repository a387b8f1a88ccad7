"""Unit tests for packet walks over static forwarding graphs."""

import pytest

from repro.dataplane import ForwardingGraph, PacketFate, canonical_cycle, walk


def graph_of(mapping):
    return ForwardingGraph(mapping)


class TestDelivery:
    def test_direct_delivery(self):
        graph = graph_of({0: 0, 1: 0})
        result = walk(graph, 1)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 1
        assert result.loop is None

    def test_multi_hop_delivery(self):
        graph = graph_of({0: 0, 1: 0, 2: 1, 3: 2})
        result = walk(graph, 3)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 3

    def test_source_is_destination(self):
        graph = graph_of({0: 0})
        result = walk(graph, 0)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 0


class TestDrops:
    def test_source_without_route(self):
        graph = graph_of({0: 0})
        result = walk(graph, 5)
        assert result.fate is PacketFate.DROPPED_NO_ROUTE
        assert result.hops == 0

    def test_drop_mid_path(self):
        graph = graph_of({0: 0, 1: None, 2: 1})
        result = walk(graph, 2)
        assert result.fate is PacketFate.DROPPED_NO_ROUTE
        assert result.hops == 1


class TestLoops:
    def test_two_node_loop_detected(self):
        graph = graph_of({5: 6, 6: 5})
        result = walk(graph, 5, ttl=128)
        assert result.fate is PacketFate.TTL_EXPIRED
        assert result.hops == 128
        assert result.loop == (5, 6)

    def test_loop_entered_from_outside(self):
        graph = graph_of({1: 2, 2: 3, 3: 2})
        result = walk(graph, 1)
        assert result.fate is PacketFate.TTL_EXPIRED
        assert result.loop == (2, 3)

    def test_long_cycle_canonicalized(self):
        graph = graph_of({3: 7, 7: 1, 1: 3})
        result = walk(graph, 7)
        assert result.loop == (1, 3, 7)

    def test_ttl_death_without_loop_on_long_path(self):
        # Path of 5 hops with ttl 3: dies of length, no cycle.
        graph = graph_of({0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        result = walk(graph, 5, ttl=3)
        assert result.fate is PacketFate.TTL_EXPIRED
        assert result.hops == 3
        assert result.loop is None

    def test_exact_ttl_delivery_succeeds(self):
        graph = graph_of({0: 0, 1: 0, 2: 1, 3: 2})
        result = walk(graph, 3, ttl=3)
        assert result.fate is PacketFate.DELIVERED

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            walk(graph_of({0: 0}), 0, ttl=0)


class TestCanonicalCycle:
    def test_rotation(self):
        assert canonical_cycle((5, 6, 2)) == (2, 5, 6)
        assert canonical_cycle((2, 5, 6)) == (2, 5, 6)

    def test_preserves_order(self):
        # (7, 3, 9) rotated to start at 3 keeps forwarding order 3->9->7.
        assert canonical_cycle((7, 3, 9)) == (3, 9, 7)

    def test_empty(self):
        assert canonical_cycle(()) == ()
