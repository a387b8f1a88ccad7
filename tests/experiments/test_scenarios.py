"""Unit tests for scenario construction."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    EventKind,
    Scenario,
    custom_tdown,
    custom_tlong,
    tcrash_clique,
    tdown_clique,
    tdown_internet,
    tflap_bclique,
    tlong_bclique,
    tlong_internet,
    treset_clique,
)
from repro.net import LinkFailure, NodeCrash, OriginWithdrawal, SessionReset
from repro.topology import chain, clique


class TestValidation:
    def test_destination_must_exist(self):
        with pytest.raises(ConfigError):
            Scenario(name="x", topology=clique(3), destination=9)

    def test_tlong_link_must_exist(self):
        with pytest.raises(ConfigError, match="not in topology"):
            Scenario(
                name="x",
                topology=clique(3),
                destination=0,
                events=(LinkFailure(0, 9, at=0.0),),
            )

    def test_tlong_rejects_cut_edges(self):
        with pytest.raises(ConfigError, match="cut edge"):
            custom_tlong(chain(3), destination=0, failed_link=(0, 1))


class TestFamilies:
    def test_tdown_clique(self):
        scenario = tdown_clique(6)
        assert scenario.events == (OriginWithdrawal(0, "dest", at=0.0),)
        assert scenario.event is EventKind.TDOWN
        assert scenario.destination == 0
        assert scenario.topology.num_nodes == 6

    def test_tlong_bclique_fails_edge_to_core_link(self):
        scenario = tlong_bclique(5)
        assert scenario.event is EventKind.TLONG
        assert scenario.failed_link == (0, 5)
        assert scenario.destination == 0

    def test_tdown_internet_destination_is_low_degree(self):
        scenario = tdown_internet(29, seed=1)
        topo = scenario.topology
        assert topo.degree(scenario.destination) == min(
            topo.degree(n) for n in topo.nodes
        )

    def test_tlong_internet_is_well_formed(self):
        scenario = tlong_internet(29, seed=1)
        assert scenario.event is EventKind.TLONG
        u, v = scenario.failed_link
        assert u == scenario.destination
        assert scenario.topology.has_edge(u, v)
        assert not scenario.topology.is_cut_edge(u, v)

    def test_tlong_internet_deterministic_per_seed(self):
        a = tlong_internet(29, seed=5)
        b = tlong_internet(29, seed=5)
        assert a.destination == b.destination
        assert a.failed_link == b.failed_link

    def test_custom_tdown(self):
        scenario = custom_tdown(chain(4), destination=3)
        assert scenario.event is EventKind.TDOWN
        assert scenario.destination == 3


class TestChurnScenarios:
    def test_treset_clique_targets_a_session(self):
        scenario = treset_clique(5)
        assert scenario.event is EventKind.TRESET
        assert scenario.failed_link == (0, 1)
        assert scenario.topology.has_edge(0, 1)

    def test_treset_allows_cut_edges(self):
        # A session reset never takes the link down, so a bridge is fine.
        scenario = Scenario(
            name="x",
            topology=chain(3),
            destination=0,
            events=(SessionReset(0, 1, at=0.0),),
        )
        assert scenario.failed_link == (0, 1)

    def test_treset_requires_a_link(self):
        with pytest.raises(ConfigError, match=r"link \(0, 9\) not in topology"):
            treset_clique(3, link=(0, 9))

    def test_tcrash_clique_defaults(self):
        scenario = tcrash_clique(5)
        assert scenario.event is EventKind.TCRASH
        assert scenario.events == (NodeCrash(1, at=0.0, restart_after=30.0),)

    def test_tcrash_requires_crash_node(self):
        with pytest.raises(ConfigError, match="crash node 9 not in topology"):
            tcrash_clique(3, crash=9)

    def test_tcrash_rejects_crashing_the_destination(self):
        with pytest.raises(ConfigError, match="Tdown"):
            tcrash_clique(4, crash=0)

    def test_tcrash_rejects_nonpositive_restart(self):
        with pytest.raises(ConfigError, match="restart_after"):
            tcrash_clique(4, restart_after=0.0)

    def test_tflap_bclique_is_well_formed(self):
        scenario = tflap_bclique(4, period=10.0, count=2)
        assert scenario.event is EventKind.TFLAP
        assert scenario.failed_link == (0, 4)
        assert scenario.flap_period == pytest.approx(10.0)
        assert scenario.flap_count == 2

    def test_tflap_requires_positive_period(self):
        with pytest.raises(ConfigError, match="flap_period"):
            tflap_bclique(4, period=0.0)
