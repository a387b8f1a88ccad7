"""Tests for the single-run experiment driver."""

import pytest

from repro.bgp import BgpConfig
from repro.experiments import (
    RunSettings,
    run_experiment,
    tdown_clique,
    tlong_bclique,
)

FAST = BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)


class TestRunLifecycle:
    def test_tdown_run_produces_metrics(self):
        run = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=1)
        result = run.result
        assert run.converged
        assert result.convergence_time > 0
        assert result.packets_sent > 0
        assert result.ttl_exhaustions > 0
        assert 0 < result.looping_ratio <= 1
        assert result.overall_looping_duration <= result.convergence_time

    def test_tlong_run_produces_metrics(self):
        run = run_experiment(tlong_bclique(4), FAST, settings=SETTINGS, seed=1)
        assert run.converged
        assert run.result.convergence_time > 0

    def test_failure_time_respects_guard(self):
        run = run_experiment(tdown_clique(4), FAST, settings=SETTINGS, seed=1)
        assert run.failure_time == pytest.approx(run.warmup_time + 0.5)

    def test_network_discarded_by_default(self):
        run = run_experiment(tdown_clique(4), FAST, settings=SETTINGS, seed=1)
        assert run.network is None

    def test_keep_network(self):
        run = run_experiment(
            tdown_clique(4), FAST, settings=SETTINGS, seed=1, keep_network=True
        )
        assert run.network is not None
        for node in run.network.nodes.values():
            node.check_invariants()

    def test_deterministic_for_seed(self):
        a = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=9)
        b = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=9)
        assert a.result.summary_row() == b.result.summary_row()

    def test_seeds_change_outcome_details(self):
        a = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=1)
        b = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=2)
        assert a.result.convergence_time != b.result.convergence_time

    def test_policy_factory_applies_per_node_policies(self):
        from repro.bgp import ShortestPathPolicy

        made = {}

        def factory(node_id):
            made[node_id] = ShortestPathPolicy()
            return made[node_id]

        run = run_experiment(
            tdown_clique(4),
            FAST,
            settings=SETTINGS,
            seed=1,
            policy_factory=factory,
            keep_network=True,
        )
        assert sorted(made) == [0, 1, 2, 3]
        for node_id, node in run.network.nodes.items():
            assert node.policy is made[node_id]

    def test_route_log_populated(self):
        run = run_experiment(tdown_clique(4), FAST, settings=SETTINGS, seed=1)
        assert len(run.route_log) > 0
        post = run.route_log.changes(prefix="dest", since=run.failure_time)
        assert post and post[-1].new_path is None

    def test_on_network_ready_hook(self):
        seen = {}

        def hook(network, failure_time):
            seen["nodes"] = len(network.nodes)
            seen["failure_time"] = failure_time

        run = run_experiment(
            tdown_clique(4),
            FAST,
            settings=SETTINGS,
            seed=1,
            on_network_ready=hook,
        )
        assert seen["nodes"] == 4
        assert seen["failure_time"] == run.failure_time


class TestMeasurementWindows:
    def test_dataplane_window_is_convergence_period(self):
        run = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=1)
        start, end = run.result.dataplane.window
        assert start == run.failure_time
        assert end == run.result.convergence.convergence_end

    def test_loop_intervals_within_window(self):
        run = run_experiment(tdown_clique(5), FAST, settings=SETTINGS, seed=1)
        start, end = run.result.dataplane.window
        for interval in run.result.loop_intervals:
            assert start <= interval.start <= interval.end <= end
