"""Tests for the unsafe policy gadgets and the oscillation runner.

The static analyzer and the dynamic runner cross-validate here in both
directions: certified-SAFE scenarios must converge, and the measured
persistent oscillation of BAD-GADGET must come with a dispute-wheel
certificate.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.stability import Verdict, certify_scenario
from repro.bgp import BgpConfig, PathRankPolicy, ShortestPathPolicy
from repro.errors import ConfigError
from repro.experiments import (
    bad_gadget,
    disagree,
    observe_oscillation,
    run_experiment,
    stability_suite,
    wedgie,
)

PREFIX = "dest"


class TestPathRankPolicy:
    def test_list_order_beats_path_length(self):
        policy = PathRankPolicy(1, [(1, 2, 3, 0), (1, 0)])
        from repro.bgp import AsPath, Route

        long = Route(prefix=PREFIX, path=AsPath.of((2, 3, 0)), next_hop=2)
        long = Route(
            prefix=PREFIX, path=long.path, next_hop=2,
            local_pref=policy.local_pref(2, long),
        )
        short = Route(prefix=PREFIX, path=AsPath.of((0,)), next_hop=0)
        short = Route(
            prefix=PREFIX, path=short.path, next_hop=0,
            local_pref=policy.local_pref(0, short),
        )
        assert policy.preference_key(long) < policy.preference_key(short)

    def test_unranked_paths_rejected_for_every_prefix(self):
        policy = PathRankPolicy(1, [(1, 0)])
        from repro.bgp import AsPath, Route

        for prefix in (PREFIX, "other"):
            ranked = Route(prefix=prefix, path=AsPath.of((0,)), next_hop=0)
            unranked = Route(prefix=prefix, path=AsPath.of((2, 0)), next_hop=2)
            assert policy.accept_import(0, ranked)
            assert not policy.accept_import(2, unranked)

    def test_ranked_path_must_start_at_the_owner(self):
        with pytest.raises(ConfigError, match="must start at node"):
            PathRankPolicy(1, [(2, 0)])

    def test_ranked_path_must_not_repeat_nodes(self):
        with pytest.raises(ConfigError, match="repeats a node"):
            PathRankPolicy(1, [(1, 2, 1, 0)])

    def test_bare_origination_and_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="no next hop"):
            PathRankPolicy(1, [(1,)])
        with pytest.raises(ConfigError, match="listed twice"):
            PathRankPolicy(1, [(1, 0), (1, 0)])


class TestGadgetDefinitions:
    def test_suite_names_are_unique_and_fixed(self):
        names = [ps.name for ps in stability_suite()]
        assert len(names) == len(set(names)) == 7
        assert names[-3:] == ["disagree", "bad-gadget", "bgp-wedgie"]

    def test_factories_are_picklable(self):
        for gadget in (disagree(), bad_gadget(), wedgie()):
            clone = pickle.loads(pickle.dumps(gadget.policy_factory))
            assert isinstance(clone(1), PathRankPolicy)

    def test_destination_gets_the_default_policy(self):
        factory = disagree().policy_factory
        assert isinstance(factory(0), ShortestPathPolicy)

    def test_gadgets_certify_unsafe_and_baselines_safe(self):
        expected = {
            "disagree": Verdict.UNSAFE,
            "bad-gadget": Verdict.UNSAFE,
            "bgp-wedgie": Verdict.UNSAFE,
            "tdown-clique-5": Verdict.SAFE,
            "tlong-bclique-4": Verdict.SAFE,
            "tdown-internet-24-s0": Verdict.SAFE,
            "gao-rexford-internet-24-s3": Verdict.SAFE,
        }
        for entry in stability_suite():
            report = certify_scenario(
                entry.scenario, policy_factory=entry.policy_factory
            )
            assert report.verdict is expected[entry.name], entry.name


class TestObserveOscillation:
    def test_bad_gadget_oscillates_with_persistent_loops(self):
        report = observe_oscillation(bad_gadget(), horizon=30.0, seed=0)
        assert report.classification == "persistent-oscillation"
        assert not report.quiescent
        # The forwarding loop keeps re-forming: many intervals, and some
        # still alive in the trailing window.
        assert len(report.loop_intervals) > 10
        assert report.persistent_loops > 0
        # Cross-check: the measured oscillation comes with a wheel.
        gadget = bad_gadget()
        static = certify_scenario(gadget.scenario, gadget.policy_factory)
        assert static.verdict is Verdict.UNSAFE
        assert static.wheel is not None

    def test_bad_gadget_oscillates_across_seeds(self):
        for seed in (1, 2):
            report = observe_oscillation(
                bad_gadget(), horizon=20.0, seed=seed
            )
            assert report.classification == "persistent-oscillation", seed

    def test_disagree_converges_under_mrai_timing(self):
        config = BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
        report = observe_oscillation(disagree(), config=config, seed=0)
        assert report.classification == "converged"
        assert report.quiescent
        assert report.persistent_loops == 0
        # Wheel present, yet convergent: necessity without sufficiency.
        gadget = disagree()
        static = certify_scenario(gadget.scenario, gadget.policy_factory)
        assert static.verdict is Verdict.UNSAFE

    def test_disagree_oscillates_when_phase_locked(self):
        # mrai=0 keeps the two nodes in lockstep: the divergent execution
        # the dispute wheel admits is actually realized.
        report = observe_oscillation(
            disagree(), horizon=20.0, seed=0
        )
        assert report.classification == "persistent-oscillation"

    def test_safe_baseline_converges_and_certifies_safe(self):
        suite = {ps.name: ps for ps in stability_suite()}
        report = observe_oscillation(
            suite["tdown-clique-5"], horizon=30.0, seed=0
        )
        assert report.classification == "converged"
        baseline = suite["tdown-clique-5"]
        static = certify_scenario(baseline.scenario, baseline.policy_factory)
        assert static.verdict is Verdict.SAFE

    def test_report_json_and_render(self):
        report = observe_oscillation(bad_gadget(), horizon=10.0, seed=0)
        payload = report.to_json()
        assert payload["classification"] == "persistent-oscillation"
        assert payload["loop_intervals"] == len(report.loop_intervals)
        text = report.render()
        assert "persistent-oscillation" in text

    def test_window_defaults_to_three_mrai_rounds(self):
        config = BgpConfig(mrai=30.0, processing_delay=(0.01, 0.05))
        report = observe_oscillation(
            disagree(), config=config, horizon=100.0
        )
        assert report.window == pytest.approx(90.0)


class TestWedgie:
    def test_wedgie_starts_in_the_intended_state(self):
        gadget = wedgie()
        report = observe_oscillation(
            gadget,
            config=BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05)),
            horizon=60.0,
            seed=0,
        )
        assert report.classification == "converged"

    def test_one_flap_wedges_the_network(self):
        gadget = wedgie()
        run = run_experiment(
            gadget.scenario,
            BgpConfig(mrai=2.0),
            seed=0,
            keep_network=True,
            policy_factory=gadget.policy_factory,
        )
        # The primary link is back up, yet routing is stuck in the
        # unintended stable state: 1 on its direct customer link, 2
        # riding it — not the 1-(1,2,3,0) / 2-(2,3,0) intent.
        network = run.network
        assert tuple(network.node(1).full_path(PREFIX)) == (1, 0)
        assert tuple(network.node(2).full_path(PREFIX)) == (2, 1, 0)
        # Both states are stable; the analyzer still flags the wheel
        # behind the wedge.
        static = certify_scenario(gadget.scenario, gadget.policy_factory)
        assert static.verdict is Verdict.UNSAFE

