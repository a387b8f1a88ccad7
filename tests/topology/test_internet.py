"""Unit tests for the Internet-like topology generator."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    InternetShape,
    Topology,
    choose_destination,
    choose_failure_link,
    internet_like,
    provider_load,
)


class TestGenerator:
    @pytest.mark.parametrize("n", [8, 29, 48, 110])
    def test_size_and_connectivity(self, n):
        topo = internet_like(n, seed=1)
        assert topo.num_nodes == n
        assert topo.is_connected()

    def test_deterministic_for_seed(self):
        assert internet_like(29, seed=4) == internet_like(29, seed=4)

    def test_different_seeds_differ(self):
        assert internet_like(29, seed=1) != internet_like(29, seed=2)

    def test_hierarchy_core_has_high_degree(self):
        topo = internet_like(60, seed=0)
        core_degrees = [topo.degree(n) for n in range(4)]
        stub_degrees = sorted(topo.degree(n) for n in topo.nodes)[:10]
        assert min(core_degrees) > max(stub_degrees)

    def test_stub_majority_is_low_degree(self):
        topo = internet_like(60, seed=0)
        low = sum(1 for node in topo.nodes if topo.degree(node) <= 2)
        assert low >= topo.num_nodes // 3

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            internet_like(5)

    def test_shape_validation(self):
        with pytest.raises(TopologyError):
            internet_like(30, shape=InternetShape(core_fraction=0.0))
        with pytest.raises(TopologyError):
            internet_like(30, shape=InternetShape(core_fraction=0.6, transit_fraction=0.5))
        with pytest.raises(TopologyError):
            internet_like(30, shape=InternetShape(stub_multihome_probability=1.5))


class TestDestinationChoice:
    def test_destination_has_lowest_degree(self):
        topo = internet_like(40, seed=2)
        destination = choose_destination(topo, seed=0)
        assert topo.degree(destination) == min(topo.degree(n) for n in topo.nodes)

    def test_deterministic(self):
        topo = internet_like(40, seed=2)
        assert choose_destination(topo, seed=5) == choose_destination(topo, seed=5)


class TestFailureLinkChoice:
    def test_single_homed_destination_rejected(self):
        topo = Topology.from_edges([(0, 1), (1, 2), (2, 0), (1, 3)])
        with pytest.raises(TopologyError):
            choose_failure_link(topo, destination=3)

    def test_failed_link_is_not_a_cut_edge(self):
        topo = internet_like(40, seed=3)
        for destination in topo.nodes:
            if topo.degree(destination) < 2:
                continue
            try:
                u, v = choose_failure_link(topo, destination)
            except TopologyError:
                continue
            assert u == destination
            assert not topo.is_cut_edge(u, v)
            break
        else:
            pytest.fail("no multi-homed destination found")

    def test_primary_link_preferred(self):
        # Destination 9 homed to hub 0 (serves everyone) and to leaf 8.
        topo = Topology.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (8, 9), (0, 9)]
        )
        link = choose_failure_link(topo, destination=9)
        assert link == (9, 0)


class TestProviderLoad:
    def test_loads_sum_over_sources(self):
        topo = Topology.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        loads = provider_load(topo, destination=3)
        assert set(loads) == {1, 2}
        # sources are 0, 1, 2: node 1 -> provider 1, node 2 -> provider 2,
        # node 0 ties (dist 1 to both) -> provider 1 by the id tie-break.
        assert loads == {1: 2, 2: 1}
