"""Tests for the static policy-stability analyzer.

Covers lattice extraction, dispute-wheel detection with self-checking
certificates, the structural SAFE short-cuts, UNKNOWN degradation under
search limits, and the contract that certification is purely static.
"""

from __future__ import annotations

import pytest

from repro.analysis.stability import (
    DisputeWheel,
    SearchLimits,
    Verdict,
    certify,
    certify_scenario,
    extract_policy_graph,
    find_dispute_wheel,
)
from repro.bgp import (
    GaoRexfordPolicy,
    PathRankPolicy,
    Relationship,
    ShortestPathPolicy,
)
from repro.engine import Scheduler
from repro.errors import AnalysisError
from repro.experiments import (
    bad_gadget,
    disagree,
    stability_suite,
    tdown_clique,
    wedgie,
)
from repro.topology import Topology

C, P, E = Relationship.CUSTOMER, Relationship.PROVIDER, Relationship.PEER


def shortest_path_policies(topology):
    return {node: ShortestPathPolicy() for node in topology.nodes}


def policies_for(policy_scenario):
    factory = policy_scenario.policy_factory
    return {
        node: factory(node)
        for node in policy_scenario.scenario.topology.nodes
    }


class TestPolicyGraphExtraction:
    def test_triangle_lattice_is_complete_and_ranked(self):
        topo = Topology.from_edges([(0, 1), (0, 2), (1, 2)])
        graph = extract_policy_graph(topo, 0, shortest_path_policies(topo))
        assert graph.complete
        # Destination: only its local origination.
        assert [p.nodes for p in graph.paths_of(0)] == [(0,)]
        # Node 1: direct path first (shorter), then through 2.
        assert [p.nodes for p in graph.paths_of(1)] == [(1, 0), (1, 2, 0)]
        assert [p.rank for p in graph.paths_of(1)] == [0, 1]
        assert graph.total_paths == 5

    def test_lattice_is_suffix_closed(self):
        topo = Topology.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        graph = extract_policy_graph(topo, 0, shortest_path_policies(topo))
        for node in topo.nodes:
            for entry in graph.paths_of(node):
                if len(entry.nodes) == 1:
                    continue
                suffix = entry.nodes[1:]
                assert graph.lookup(suffix[0], suffix) is not None, (
                    f"suffix {suffix} of {entry.nodes} missing"
                )

    def test_poison_reverse_excludes_looping_paths(self):
        topo = Topology.from_edges([(0, 1), (0, 2), (1, 2)])
        graph = extract_policy_graph(topo, 0, shortest_path_policies(topo))
        for node in topo.nodes:
            for entry in graph.paths_of(node):
                assert len(set(entry.nodes)) == len(entry.nodes)

    def test_path_rank_policy_filters_unranked_paths(self):
        gadget = disagree()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        # Node 1 permits exactly its two ranked paths, list order = rank.
        assert [p.nodes for p in graph.paths_of(1)] == [(1, 2, 0), (1, 0)]
        assert [p.nodes for p in graph.paths_of(2)] == [(2, 1, 0), (2, 0)]

    def test_per_node_cap_truncates_and_marks_incomplete(self):
        topo = tdown_clique(5).topology
        limits = SearchLimits(max_paths_per_node=2)
        graph = extract_policy_graph(
            topo, 0, shortest_path_policies(topo), limits=limits
        )
        assert not graph.complete
        assert graph.truncated_nodes
        assert all(len(graph.paths_of(n)) <= 2 for n in topo.nodes)

    def test_unknown_destination_rejected(self):
        topo = Topology.from_edges([(0, 1)])
        with pytest.raises(AnalysisError, match="not in topology"):
            extract_policy_graph(topo, 9, shortest_path_policies(topo))

    def test_search_limits_validate(self):
        with pytest.raises(AnalysisError):
            SearchLimits(max_paths_per_node=0)
        with pytest.raises(AnalysisError):
            SearchLimits(max_search_steps=0)


class TestDisputeWheelDetection:
    def test_shortest_path_clique_has_no_wheel(self):
        topo = tdown_clique(5).topology
        graph = extract_policy_graph(topo, 0, shortest_path_policies(topo))
        assert find_dispute_wheel(graph) is None

    def test_disagree_yields_the_rim_1_2_wheel(self):
        gadget = disagree()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        wheel = find_dispute_wheel(graph)
        assert wheel is not None
        assert sorted(wheel.rim) == [1, 2]
        assert sorted(p.ases for p in wheel.spokes) == [(1, 0), (2, 0)]
        # Every rim node strictly prefers riding the wheel.
        assert all(
            wr <= sr for wr, sr in zip(wheel.wheel_ranks, wheel.spoke_ranks)
        )
        wheel.validate(graph)  # self-checking certificate

    def test_bad_gadget_yields_the_three_node_rim(self):
        gadget = bad_gadget()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        wheel = find_dispute_wheel(graph)
        assert wheel is not None
        assert sorted(wheel.rim) == [1, 2, 3]
        wheel.validate(graph)

    def test_wedgie_carries_a_wheel(self):
        gadget = wedgie()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        wheel = find_dispute_wheel(graph)
        assert wheel is not None
        wheel.validate(graph)

    def test_tampered_certificate_fails_validation(self):
        gadget = disagree()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        wheel = find_dispute_wheel(graph)
        # Swap spoke and wheel paths: the "preference" condition inverts.
        forged = DisputeWheel(
            rim=wheel.rim,
            spokes=wheel.wheel_paths,
            wheel_paths=wheel.spokes,
            spoke_ranks=wheel.wheel_ranks,
            wheel_ranks=wheel.spoke_ranks,
        )
        with pytest.raises(AnalysisError):
            forged.validate(graph)

    def test_rim_paths_end_at_the_next_rim_node(self):
        gadget = bad_gadget()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        wheel = find_dispute_wheel(graph)
        for index, segment in enumerate(wheel.rim_paths()):
            assert segment[0] == wheel.rim[index]
            assert segment[-1] == wheel.rim[(index + 1) % wheel.size]

    def test_wheel_json_round_trips_the_certificate_fields(self):
        gadget = disagree()
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        payload = find_dispute_wheel(graph).to_json()
        assert sorted(payload["rim"]) == [1, 2]
        assert len(payload["spokes"]) == len(payload["wheel_paths"]) == 2
        assert all(isinstance(p, list) for p in payload["spokes"])


class TestStructuralShortcuts:
    def test_shortest_path_scenario_certifies_structurally(self):
        report = certify_scenario(tdown_clique(5))
        assert report.verdict is Verdict.SAFE
        assert report.method == "shortest-path"

    def test_policy_subclass_voids_the_shortest_path_shortcut(self):
        topo = Topology.from_edges([(0, 1), (0, 2), (1, 2)])
        report = certify(
            topo,
            0,
            policy_factory=lambda n: PathRankPolicy(n, [(n, 0)])
            if n
            else ShortestPathPolicy(),
        )
        assert report.method != "shortest-path"
        assert report.verdict is Verdict.SAFE  # direct-only lists: no wheel

    def test_gao_rexford_tiered_graph_certifies_structurally(self):
        suite = {ps.name: ps for ps in stability_suite()}
        entry = suite["gao-rexford-internet-24-s3"]
        report = certify_scenario(
            entry.scenario, policy_factory=entry.policy_factory
        )
        assert report.verdict is Verdict.SAFE
        assert report.method == "gao-rexford"

    def test_inconsistent_relationships_fall_back_to_the_lattice(self):
        # Both ends claim the other is their customer: not a valid
        # Gao-Rexford instance, so the structural argument must not apply.
        topo = Topology.from_edges([(0, 1)])
        maps = {0: {1: C}, 1: {0: C}}
        report = certify(
            topo, 0, policy_factory=lambda n: GaoRexfordPolicy(maps[n])
        )
        assert report.method not in ("gao-rexford", "shortest-path")
        assert report.verdict is Verdict.SAFE  # two nodes cannot wheel here

    def test_provider_customer_cycle_voids_the_structural_argument(self):
        # 0 -> 1 -> 2 -> 0 as a provider chain: everyone is everyone's
        # indirect customer.  Pairwise-consistent, but not a DAG.
        topo = Topology.from_edges([(0, 1), (1, 2), (0, 2)])
        maps = {
            0: {1: C, 2: P},
            1: {0: P, 2: C},
            2: {1: P, 0: C},
        }
        report = certify(
            topo, 0, policy_factory=lambda n: GaoRexfordPolicy(maps[n])
        )
        assert report.method != "gao-rexford"

    def test_structural_false_forces_the_exhaustive_route(self):
        scenario = tdown_clique(4)
        report = certify(
            scenario.topology, scenario.destination, structural=False
        )
        assert report.verdict is Verdict.SAFE
        assert report.method == "no-dispute-wheel"
        assert report.paths > 0


class TestUnknownDegradation:
    def test_truncated_lattice_reports_unknown(self):
        scenario = tdown_clique(6)
        report = certify(
            scenario.topology,
            scenario.destination,
            structural=False,
            limits=SearchLimits(max_paths_per_node=3),
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.method == "truncated-lattice"
        assert not report.complete

    def test_search_budget_exhaustion_reports_unknown(self):
        scenario = tdown_clique(5)
        report = certify(
            scenario.topology,
            scenario.destination,
            structural=False,
            limits=SearchLimits(max_search_steps=5),
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.method == "search-budget"

    def test_wheel_found_despite_truncation_stays_unsafe(self):
        # Evidence of a wheel is valid regardless of truncation elsewhere.
        gadget = bad_gadget()
        report = certify(
            gadget.scenario.topology,
            gadget.scenario.destination,
            gadget.policy_factory,
            limits=SearchLimits(max_paths_per_node=2),
        )
        assert report.verdict is Verdict.UNSAFE
        assert report.wheel is not None


class TestCertifier:
    def test_unsafe_report_carries_a_validated_wheel(self):
        gadget = bad_gadget()
        report = certify_scenario(
            gadget.scenario, policy_factory=gadget.policy_factory
        )
        assert report.verdict is Verdict.UNSAFE
        assert report.method == "dispute-wheel"
        graph = extract_policy_graph(
            gadget.scenario.topology, 0, policies_for(gadget)
        )
        report.wheel.validate(graph)

    def test_report_json_and_render_mention_the_verdict(self):
        gadget = disagree()
        report = certify_scenario(
            gadget.scenario, policy_factory=gadget.policy_factory
        )
        payload = report.to_json()
        assert payload["verdict"] == "unsafe"
        assert "wheel" in payload
        assert "UNSAFE" in report.render()
        assert "dispute wheel" in report.render()

    def test_certification_is_purely_static(self):
        # The analyzer must never touch a scheduler: certifying every
        # bundled scenario schedules zero events.
        scheduler = Scheduler()
        before = scheduler.now
        for entry in stability_suite():
            certify_scenario(
                entry.scenario, policy_factory=entry.policy_factory
            )
        assert scheduler.now == before == 0.0
