"""Unit tests for repro.topology.graph."""

import pytest

from repro.errors import TopologyError
from repro.topology import DEFAULT_LINK_DELAY, Topology


@pytest.fixture
def triangle():
    return Topology.from_edges([(0, 1), (1, 2), (0, 2)], name="triangle")


class TestConstruction:
    def test_add_edge_creates_nodes(self):
        topo = Topology()
        topo.add_edge(3, 7)
        assert topo.nodes == [3, 7]
        assert topo.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_edge(1, 1)

    def test_negative_node_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_node(-1)

    def test_non_positive_delay_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_edge(0, 1, delay=0.0)

    def test_duplicate_edge_updates_delay(self):
        topo = Topology()
        topo.add_edge(0, 1, delay=0.002)
        topo.add_edge(0, 1, delay=0.010)
        assert topo.num_edges == 1
        assert topo.link_delay(0, 1) == 0.010


class TestQueries:
    def test_neighbors_sorted(self):
        topo = Topology.from_edges([(5, 1), (5, 9), (5, 3)])
        assert topo.neighbors(5) == [1, 3, 9]

    def test_neighbors_of_unknown_node_raises(self, triangle):
        with pytest.raises(TopologyError):
            triangle.neighbors(99)

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2

    def test_edge_symmetry(self, triangle):
        assert triangle.has_edge(0, 1) and triangle.has_edge(1, 0)
        assert triangle.link_delay(0, 1) == triangle.link_delay(1, 0)

    def test_edges_yields_each_once_with_u_lt_v(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _delay in edges)

    def test_default_delay_is_2ms(self, triangle):
        assert triangle.link_delay(0, 1) == DEFAULT_LINK_DELAY == 0.002


class TestConnectivity:
    def test_connected_triangle(self, triangle):
        assert triangle.is_connected()

    def test_disconnected_graph(self):
        topo = Topology.from_edges([(0, 1), (2, 3)])
        assert not topo.is_connected()

    def test_empty_topology_is_connected(self):
        assert Topology().is_connected()

    def test_component_of(self):
        topo = Topology.from_edges([(0, 1), (2, 3)])
        assert topo.component_of(0) == {0, 1}

    def test_component_without_edge(self):
        topo = Topology.from_edges([(0, 1), (1, 2)])
        assert topo.component_of(0, without_edge=(1, 2)) == {0, 1}

    def test_cut_edge_detection(self):
        topo = Topology.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert topo.is_cut_edge(2, 3)
        assert not topo.is_cut_edge(0, 1)


class TestTransforms:
    def test_copy_is_independent(self, triangle):
        dup = triangle.copy()
        dup.add_edge(0, 3)
        assert dup.has_edge(0, 3)
        assert not triangle.has_edge(0, 3)
        assert 3 not in triangle.nodes

    def test_copy_equals_original(self, triangle):
        assert triangle.copy() == triangle

    def test_equality_ignores_name(self):
        a = Topology.from_edges([(0, 1)], name="a")
        b = Topology.from_edges([(0, 1)], name="b")
        assert a == b
