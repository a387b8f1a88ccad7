"""The parallel sweep executor: digest-verified equivalence to sequential.

The contract under test: ``sweep(..., jobs=N)`` is *bit-identical* to
``sweep(..., jobs=1)`` — same per-trial trace/FIB/summary SHA-256
fingerprints, same aggregate point metrics, same failures — with fault
isolation preserved across the process boundary.
"""
from functools import partial

import pytest

from repro.bgp import BgpConfig
from repro.errors import AnalysisError, BudgetExceededError
from repro.experiments import (
    RunSettings,
    TrialFailure,
    TrialTask,
    bclique_tflap_trial,
    clique_tdown_trial,
    constant_config,
    sweep,
    trial_runner,
)
from repro.experiments.sweep import (
    TrialRunner,
    record_of_outcome,
    run_trials,
    summarize_point,
)
from repro.telemetry import MetricsSnapshot
from sweep_outcomes import sweep_outcomes

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
TRACED = RunSettings(failure_guard=0.5, telemetry=True)
#: Kills the 6-clique's warm-up while the 3-clique sails through
#: (calibrated: the 6-clique needs > 200 events, the 3-clique far fewer).
TIGHT = RunSettings(failure_guard=0.5, event_budget=200)

MAKE_CONFIG = partial(constant_config, config=FAST)

JOBS = 4


def digests(swept):
    """The fingerprint digest of every trial that ran to the end."""
    _points, outcomes = swept
    return [
        outcome.fingerprint.digest
        for outcome in outcomes
        if not isinstance(outcome, TrialFailure)
    ]


def failures(swept):
    _points, outcomes = swept
    return [outcome for outcome in outcomes if isinstance(outcome, TrialFailure)]


def inner_factory():
    """A factory defined inside a function: pickle cannot find it by name."""

    def make_scenario(x, seed):
        return None

    return make_scenario


class TestGoldenEquivalence:
    """jobs=1 and jobs=4 must be indistinguishable, digest by digest."""

    @pytest.fixture(scope="class")
    def tdown_pair(self):
        kwargs = dict(seeds=(0, 1), settings=SETTINGS, digests=True)
        sequential = sweep_outcomes([3, 4], clique_tdown_trial, MAKE_CONFIG, **kwargs)
        parallel = sweep_outcomes(
            [3, 4], clique_tdown_trial, MAKE_CONFIG, jobs=JOBS, **kwargs
        )
        return sequential, parallel

    @pytest.fixture(scope="class")
    def tflap_pair(self):
        make_scenario = partial(bclique_tflap_trial, size=3, count=2)
        kwargs = dict(seeds=(0, 1), settings=SETTINGS, digests=True)
        sequential = sweep_outcomes([5.0, 9.0], make_scenario, MAKE_CONFIG, **kwargs)
        parallel = sweep_outcomes(
            [5.0, 9.0], make_scenario, MAKE_CONFIG, jobs=JOBS, **kwargs
        )
        return sequential, parallel

    def test_tdown_trial_digests_identical(self, tdown_pair):
        sequential, parallel = tdown_pair
        assert digests(sequential) == digests(parallel)
        assert len(digests(sequential)) == 4

    def test_tdown_aggregate_metrics_identical(self, tdown_pair):
        (sequential, _), (parallel, _) = tdown_pair
        assert [p.metrics for p in sequential] == [p.metrics for p in parallel]

    def test_tdown_point_order_is_task_order(self, tdown_pair):
        _, (points, runs) = tdown_pair
        assert [point.x for point in points] == [3, 4]
        # Each point summarizes exactly its own x's trials.
        for point, group in zip(points, (runs[:2], runs[2:])):
            records = [record_of_outcome(point.x, run) for run in group]
            assert point == summarize_point(point.x, records)

    def test_tflap_trial_digests_identical(self, tflap_pair):
        sequential, parallel = tflap_pair
        assert digests(sequential) == digests(parallel)
        assert len(digests(sequential)) == 4

    def test_tflap_aggregate_metrics_identical(self, tflap_pair):
        (sequential, _), (parallel, _) = tflap_pair
        assert [p.metrics for p in sequential] == [p.metrics for p in parallel]

    def test_fingerprints_cover_trace_fib_and_summary(self, tdown_pair):
        (_, runs), _ = tdown_pair
        fingerprint = runs[0].fingerprint
        assert fingerprint.messages > 0
        assert fingerprint.fib_changes > 0
        assert "convergence_time=" in fingerprint.summary_line

    def test_networks_dropped_in_both_modes(self, tdown_pair):
        (_, sequential), (_, parallel) = tdown_pair
        assert all(run.network is None for run in sequential + parallel)


class TestTelemetryEquivalence:
    """Telemetry snapshots ride home from workers without touching digests."""

    @pytest.fixture(scope="class")
    def traced_pair(self):
        kwargs = dict(seeds=(0, 1), settings=TRACED, digests=True)
        sequential = sweep_outcomes([3, 4], clique_tdown_trial, MAKE_CONFIG, **kwargs)
        parallel = sweep_outcomes(
            [3, 4], clique_tdown_trial, MAKE_CONFIG, jobs=JOBS, **kwargs
        )
        return sequential, parallel

    @pytest.fixture(scope="class")
    def plain(self):
        return sweep_outcomes(
            [3, 4],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0, 1),
            settings=SETTINGS,
            digests=True,
        )

    def test_telemetry_on_off_digests_identical(self, traced_pair, plain):
        """The probe only observes: fingerprints are bit-identical either way."""
        sequential, _ = traced_pair
        assert digests(sequential) == digests(plain)

    def test_traced_parallel_digests_match_sequential(self, traced_pair):
        sequential, parallel = traced_pair
        assert digests(sequential) == digests(parallel)
        assert len(digests(sequential)) == 4

    def test_snapshots_pickle_across_workers(self, traced_pair):
        _, (_, runs) = traced_pair
        for run in runs:
            assert run.metrics is not None
            assert run.metrics.counter("engine.events_executed") > 0
            assert run.metrics.counter("bgp.decision_runs") > 0

    def test_worker_snapshots_equal_sequential(self, traced_pair):
        (_, seq_runs), (_, par_runs) = traced_pair
        assert [r.metrics for r in seq_runs] == [r.metrics for r in par_runs]

    def test_point_aggregation(self, traced_pair):
        _, (_, runs) = traced_pair
        point_runs = runs[:2]  # x = 3
        aggregate = MetricsSnapshot.aggregate([run.metrics for run in point_runs])
        per_run = sum(
            run.metrics.counter("engine.events_executed") for run in point_runs
        )
        assert aggregate.counter("engine.events_executed") == per_run

    def test_plain_runs_carry_no_snapshots(self, plain):
        _, runs = plain
        assert all(run.metrics is None for run in runs)
        assert all(run.timeline is None for run in runs)


class TestFailureEquivalence:
    """An injected BudgetExceededError trial must not perturb equivalence."""

    @pytest.fixture(scope="class")
    def pair(self):
        kwargs = dict(seeds=(0,), settings=TIGHT, digests=True)
        sequential = sweep_outcomes([3, 6], clique_tdown_trial, MAKE_CONFIG, **kwargs)
        parallel = sweep_outcomes(
            [3, 6], clique_tdown_trial, MAKE_CONFIG, jobs=JOBS, **kwargs
        )
        return sequential, parallel

    def test_failure_is_injected(self, pair):
        (sequential, _), _ = pair
        assert [(p.succeeded, p.failed) for p in sequential] == [(1, 0), (0, 1)]

    def test_failures_match_sequential(self, pair):
        sequential, parallel = pair
        [seq_failure] = failures(sequential)
        [par_failure] = failures(parallel)
        assert (par_failure.x, par_failure.seed) == (seq_failure.x, seq_failure.seed)
        assert isinstance(par_failure.error, BudgetExceededError)
        assert str(par_failure.error) == str(seq_failure.error)

    def test_snapshot_survives_worker_boundary(self, pair):
        sequential, parallel = pair
        seq_snapshot = failures(sequential)[0].snapshot
        par_snapshot = failures(parallel)[0].snapshot
        assert par_snapshot is not None
        assert par_snapshot == seq_snapshot
        assert par_snapshot.events_processed > 0
        assert "t=" in par_snapshot.render()

    def test_surviving_trials_digest_identical(self, pair):
        sequential, parallel = pair
        assert digests(sequential) == digests(parallel)
        assert len(digests(sequential)) == 1

    def test_worker_failures_counted(self, pair):
        _, (points, _) = pair
        assert [(p.x, p.succeeded, p.failed) for p in points] == [
            (3, 1, 0), (6, 0, 1),
        ]

    def test_run_trials_raises_from_workers(self):
        tasks = [
            TrialTask(x, 0, clique_tdown_trial, FAST, TIGHT) for x in (3, 6)
        ]
        with trial_runner(JOBS), pytest.raises(BudgetExceededError) as excinfo:
            run_trials(tasks)
        # The snapshot still rides on the raised error.
        assert excinfo.value.snapshot is not None


class TestExecutorPlumbing:
    def test_jobs_zero_means_cpu_count(self):
        points = sweep(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0,),
            settings=SETTINGS,
            jobs=0,
        )
        assert points[0].succeeded == 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(AnalysisError):
            sweep([3], clique_tdown_trial, MAKE_CONFIG, jobs=-1)

    def test_closures_rejected_with_remedy(self):
        with pytest.raises(AnalysisError, match="functools.partial"):
            sweep(
                [3],
                lambda x, seed: None,
                MAKE_CONFIG,
                settings=SETTINGS,
                jobs=2,
            )

    @pytest.mark.parametrize(
        "factory",
        [
            lambda x, seed: None,
            inner_factory(),
            partial(clique_tdown_trial, hook=lambda: None),
        ],
        ids=["lambda", "inner-function", "unpicklable-bound-value"],
    )
    def test_every_factory_of_a_batch_is_checked(self, factory):
        tasks = [
            TrialTask(3, 0, clique_tdown_trial, FAST, SETTINGS),
            TrialTask(3, 0, factory, FAST, SETTINGS),
        ]
        with pytest.raises(AnalysisError, match="functools.partial"):
            TrialRunner(2).run(tasks)

    def test_closures_still_fine_sequentially(self):
        from repro.experiments import tdown_clique

        points = sweep(
            [3],
            lambda x, seed: tdown_clique(int(x)),
            lambda x: FAST,
            seeds=(0,),
            settings=SETTINGS,
        )
        assert points[0].succeeded == 1

    def test_progress_callback_sees_every_trial(self):
        seen = []
        TrialRunner(2).run(
            [
                TrialTask(x, seed, clique_tdown_trial, FAST, SETTINGS)
                for x in (3, 4)
                for seed in (0, 1)
            ],
            lambda task, outcome: seen.append((task, outcome)),
        )
        assert len(seen) == 4
        assert not any(isinstance(outcome, TrialFailure) for _, outcome in seen)
        assert {(task.x, task.seed) for task, _ in seen} == {
            (3, 0), (3, 1), (4, 0), (4, 1),
        }
        assert all(outcome.seed == task.seed for task, outcome in seen)

    def test_progress_callback_sequential_order(self):
        seen = []
        TrialRunner().run(
            [TrialTask(x, 0, clique_tdown_trial, FAST, SETTINGS) for x in (3, 4)],
            lambda task, outcome: seen.append((task.x, task.seed)),
        )
        assert seen == [(3, 0), (4, 0)]
