"""Unit tests for repro.topology.generators."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    b_clique,
    binary_tree,
    chain,
    clique,
    grid,
    named_generator,
    ring,
    ring_with_core,
    star,
)


class TestClique:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_full_mesh(self, n):
        topo = clique(n)
        assert topo.num_nodes == n
        assert topo.num_edges == n * (n - 1) // 2
        assert all(topo.degree(node) == n - 1 for node in topo.nodes)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            clique(1)


class TestBClique:
    def test_structure_matches_paper(self):
        n = 4
        topo = b_clique(n)
        # 2n nodes: chain 0..n-1, clique n..2n-1, plus the two bridges.
        assert topo.num_nodes == 2 * n
        assert topo.has_edge(0, n)            # edge-to-core link
        assert topo.has_edge(n - 1, 2 * n - 1)  # chain-to-core backup
        for i in range(n - 1):
            assert topo.has_edge(i, i + 1)    # the chain
        for u in range(n, 2 * n):
            for v in range(u + 1, 2 * n):
                assert topo.has_edge(u, v)    # the clique

    def test_edge_count(self):
        n = 5
        topo = b_clique(n)
        expected = (n - 1) + n * (n - 1) // 2 + 2
        assert topo.num_edges == expected

    def test_failing_0_n_keeps_graph_connected(self):
        topo = b_clique(5)
        assert not topo.is_cut_edge(0, 5)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            b_clique(1)


class TestSimpleShapes:
    def test_chain(self):
        topo = chain(4)
        assert topo.num_edges == 3
        assert topo.degree(0) == topo.degree(3) == 1

    def test_ring(self):
        topo = ring(5)
        assert topo.num_edges == 5
        assert all(topo.degree(node) == 2 for node in topo.nodes)

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_star(self):
        topo = star(6)
        assert topo.degree(0) == 5
        assert all(topo.degree(leaf) == 1 for leaf in range(1, 6))

    def test_binary_tree(self):
        topo = binary_tree(3)
        assert topo.num_nodes == 15
        assert topo.num_edges == 14
        assert topo.is_connected()

    def test_grid(self):
        topo = grid(3, 4)
        assert topo.num_nodes == 12
        assert topo.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert topo.is_connected()

    def test_grid_too_small(self):
        with pytest.raises(TopologyError):
            grid(1, 1)


class TestRingWithCore:
    def test_structure(self):
        topo = ring_with_core(4, backup_len=2)
        # ring 0..3, destination 4, backup chain 5-6 from node 1 to 4.
        assert topo.has_edge(0, 4)
        assert topo.has_edge(1, 5)
        assert topo.has_edge(5, 6)
        assert topo.has_edge(6, 4)
        assert not topo.is_cut_edge(0, 4)

    def test_zero_backup_connects_node_1_directly(self):
        topo = ring_with_core(3, backup_len=0)
        assert topo.has_edge(1, 3)

    def test_bad_params(self):
        with pytest.raises(TopologyError):
            ring_with_core(2)
        with pytest.raises(TopologyError):
            ring_with_core(4, backup_len=-1)


class TestRegistry:
    def test_known_names(self):
        assert named_generator("clique") is clique
        assert named_generator("b-clique") is b_clique
        assert named_generator("bclique") is b_clique

    def test_unknown_name(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            named_generator("torus")
