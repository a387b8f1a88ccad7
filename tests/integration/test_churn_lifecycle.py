"""End-to-end churn lifecycle tests: restore reconvergence, determinism,
the Treset acceptance scenario, and sweep fault isolation."""

import pytest

from repro.bgp import BgpConfig, BgpSpeaker
from repro.engine import RandomStreams, Scheduler
from repro.errors import BudgetExceededError
from repro.experiments import (
    DiagnosticSnapshot,
    RunSettings,
    TrialFailure,
    checkpointed_sweep,
    run_experiment,
    tcrash_clique,
    tdown_clique,
    tflap_bclique,
    treset_clique,
)
from repro.net import Network
from repro.topology import b_clique

PREFIX = "dest"
FAST = BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
SESSION = BgpConfig(
    mrai=2.0,
    processing_delay=(0.01, 0.05),
    hold_time=9.0,
    keepalive_interval=3.0,
    connect_retry=0.5,
    connect_retry_cap=4.0,
)


def trace_signature(run):
    """The full message trace as comparable tuples."""
    return [
        (r.time, r.src, r.dst, repr(r.message))
        for r in run.network.trace.records()
    ]


class TestLinkRestoreReconvergence:
    @pytest.mark.parametrize(
        "config", [FAST, SESSION], ids=["paper-mode", "session-mode"]
    )
    def test_fail_and_restore_returns_to_prefailure_locribs(self, config):
        """Failing and then restoring a transit link must reconverge every
        speaker to exactly its pre-failure best path."""
        scheduler = Scheduler()
        streams = RandomStreams(11)
        topo = b_clique(4)
        network = Network(
            topo,
            scheduler,
            lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
        )
        network.node(0).originate(PREFIX)
        network.start()
        scheduler.run(until=60.0, max_events=200_000)
        before = {
            nid: network.node(nid).full_path(PREFIX) for nid in topo.nodes
        }
        assert all(path is not None for path in before.values())

        network.fail_link(0, 4)
        scheduler.run(until=scheduler.now + 60.0, max_events=200_000)
        degraded = {
            nid: network.node(nid).full_path(PREFIX) for nid in topo.nodes
        }
        assert degraded != before  # the failure forced longer paths

        network.restore_link(0, 4)
        scheduler.run(until=scheduler.now + 60.0, max_events=200_000)
        after = {
            nid: network.node(nid).full_path(PREFIX) for nid in topo.nodes
        }
        assert after == before
        for node in network.nodes.values():
            node.check_invariants()


class TestTresetAcceptance:
    def test_treset_clique5_runs_end_to_end(self):
        run = run_experiment(treset_clique(5), SESSION, seed=3)
        assert run.converged
        # The reset generated observable re-exchange traffic.
        assert run.result.convergence.update_count > 0
        assert run.end_time > run.failure_time

    @pytest.mark.parametrize("seed", [0, 1])
    def test_treset_is_deterministic_per_seed(self, seed):
        runs = [
            run_experiment(treset_clique(5), SESSION, seed=seed, keep_network=True)
            for _ in range(2)
        ]
        assert trace_signature(runs[0]) == trace_signature(runs[1])
        assert runs[0].result.loop_intervals == runs[1].result.loop_intervals
        assert runs[0].end_time == runs[1].end_time


class TestChurnDeterminism:
    """Same scenario + seed => byte-identical traces and loop timelines."""

    @pytest.mark.parametrize(
        "scenario_factory",
        [
            lambda: tcrash_clique(4, restart_after=15.0),
            lambda: tflap_bclique(4, period=10.0, count=2),
        ],
        ids=["tcrash", "tflap"],
    )
    def test_churn_runs_replay_identically(self, scenario_factory):
        runs = [
            run_experiment(
                scenario_factory(), SESSION, seed=7, keep_network=True
            )
            for _ in range(2)
        ]
        assert trace_signature(runs[0]) == trace_signature(runs[1])
        assert runs[0].result.loop_intervals == runs[1].result.loop_intervals
        assert (
            runs[0].result.convergence.convergence_time
            == runs[1].result.convergence.convergence_time
        )

    def test_different_seeds_diverge(self):
        runs = [
            run_experiment(
                tcrash_clique(4, restart_after=15.0),
                SESSION,
                seed=seed,
                keep_network=True,
            )
            for seed in (0, 1)
        ]
        assert trace_signature(runs[0]) != trace_signature(runs[1])


class TestSweepFaultIsolation:
    """One budget-exhausted trial must not take down the sweep."""

    TIGHT = RunSettings(event_budget=30)  # clique-2 fits, clique-5 cannot

    def test_failed_trials_recorded_and_survivors_measured(self, tmp_path):
        heard = []
        ok, dead = checkpointed_sweep(
            (2, 5),
            make_scenario=lambda x, seed: tdown_clique(int(x)),
            make_config=lambda x: FAST,
            journal=tmp_path / "sweep.jsonl",
            seeds=(0, 1),
            settings=self.TIGHT,
            on_outcome=lambda task, outcome: heard.append(outcome),
        )
        assert ok.succeeded == 2 and ok.failed == 0
        assert dead.succeeded == 0 and dead.failed == 2
        # Survivors still produce metrics.
        assert ok.metrics["convergence_time"] >= 0.0
        # Failures carry the post-mortem snapshot.
        failures = [o for o in heard if isinstance(o, TrialFailure)]
        assert [(failure.x, failure.seed) for failure in failures] == [(5, 0), (5, 1)]
        for failure in failures:
            assert isinstance(failure.error, BudgetExceededError)
            assert isinstance(failure.snapshot, DiagnosticSnapshot)
            assert failure.snapshot.pending_events > 0
            assert "pending" in failure.snapshot.render()
