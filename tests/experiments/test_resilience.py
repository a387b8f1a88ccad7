"""The resilient executor: policy validation, backoff, retry, timeouts.

Heavier fault-injection scenarios (digest equivalence under SIGKILL +
hang, subprocess drivers) live in ``test_resilience_chaos.py``; these
tests cover the :class:`ResiliencePolicy` contract and each failure
kind's bookkeeping in (mostly) isolation.
"""

import os
import pickle
import random
from functools import partial

import pytest

import chaos_helpers
from repro.bgp import BgpConfig
from repro.errors import ConfigError, TrialTimeoutError, WorkerCrashError
from repro.experiments import (
    ResiliencePolicy,
    RunSettings,
    TrialFailure,
    TrialTimeout,
    TrialTask,
    checkpointed_sweep,
    clique_tdown_trial,
    constant_config,
    sweep,
)
from repro.experiments.resilience import BACKOFF_BASE, BACKOFF_CAP, JITTER
from repro.experiments.sweep import TrialRunner, record_of_outcome, summarize_point
from sweep_outcomes import sweep_batch, sweep_outcomes

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
#: Kills the 6-clique's warm-up while the 3-clique sails through.
TIGHT = RunSettings(failure_guard=0.5, event_budget=200)

MAKE_CONFIG = partial(constant_config, config=FAST)

#: Generous watchdog budget for trials expected to finish normally.
SLACK = 60.0
#: Tight watchdog budget for trials expected to hang.
SNAP = 0.75


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_attempts == policy.max_retries + 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(trial_timeout=0.0),
            dict(trial_timeout=-5.0),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ResiliencePolicy(**kwargs)


class TestBackoff:
    """``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-2))``, stretched by up to
    ``JITTER`` of itself from a stream seeded by ``(index, seed, attempt)``."""

    def test_first_attempt_never_waits(self):
        assert ResiliencePolicy().backoff_delay(0, 0, 1) == 0.0

    def test_deterministic_across_calls(self):
        a = ResiliencePolicy()
        b = ResiliencePolicy()
        for attempt in (2, 3, 4):
            assert a.backoff_delay(7, 3, attempt) == b.backoff_delay(
                7, 3, attempt
            )

    def test_jitter_streams_differ_by_task(self):
        policy = ResiliencePolicy()
        delays = {policy.backoff_delay(i, 0, 2) for i in range(8)}
        assert len(delays) > 1

    def test_exponential_growth_and_cap(self):
        policy = ResiliencePolicy()
        for attempt in range(2, 12):
            base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 2))
            stream = random.Random(
                (2654435761 + 3 * 40503 + attempt * 97) & 0xFFFFFFFF
            )
            assert policy.backoff_delay(0, 3, attempt) == pytest.approx(
                base * (1.0 + JITTER * stream.random())
            )
        # Attempt 8 is the first whose uncapped base passes the cap.
        assert BACKOFF_BASE * 2 ** 5 < BACKOFF_CAP < BACKOFF_BASE * 2 ** 6
        assert policy.backoff_delay(0, 3, 11) <= BACKOFF_CAP * (1 + JITTER)

    def test_jitter_bounded_by_fraction(self):
        policy = ResiliencePolicy()
        for index in range(16):
            delay = policy.backoff_delay(index, 1, 2)
            assert BACKOFF_BASE <= delay <= BACKOFF_BASE * (1 + JITTER)


class TestFailureTypes:
    def test_trial_failure_repr_excludes_elapsed(self):
        failure = TrialFailure(
            x=3, seed=1, error=TrialTimeoutError("boom"),
            attempt=2, elapsed=1.2345,
        )
        assert repr(failure) == "TrialFailure(x=3, seed=1, attempt=2: boom)"
        assert "1.2345" not in repr(failure)

    def test_trial_timeout_is_a_trial_failure(self):
        timeout = TrialTimeout(
            x=4, seed=0, error=TrialTimeoutError("slow", timeout=2.0),
            attempt=1, timeout=2.0,
        )
        assert isinstance(timeout, TrialFailure)
        assert repr(timeout) == (
            "TrialTimeout(x=4, seed=0, attempt=1, timeout=2.0: slow)"
        )

    def test_timeout_error_pickles_with_fields(self):
        error = TrialTimeoutError("slow", timeout=2.5, attempts=3)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.timeout, clone.attempts) == (2.5, 3)

    def test_worker_crash_error_pickles_with_fields(self):
        error = WorkerCrashError("dead", exitcode=-9, attempts=2)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.exitcode, clone.attempts) == (-9, 2)

    def test_sweep_point_counts_timeouts(self):
        failures = [
            TrialFailure(x=3, seed=0, error=TrialTimeoutError("x")),
            TrialTimeout(x=3, seed=1, error=TrialTimeoutError("y")),
        ]
        point = summarize_point(
            3, [record_of_outcome(3, failure) for failure in failures]
        )
        assert point.failed == 2
        assert point.timeouts == 1


class TestInProcessPolicy:
    def test_jobs1_policy_adds_provenance(self):
        _points, [run] = sweep_outcomes(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0,),
            settings=SETTINGS,
            policy=ResiliencePolicy(),
        )
        assert run.attempt == 1

    def test_jobs1_failure_carries_attempt_and_elapsed(self):
        _points, [failure] = sweep_outcomes(
            [6],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0,),
            settings=TIGHT,
            policy=ResiliencePolicy(),
        )
        assert failure.attempt == 1
        assert failure.elapsed > 0


class TestSupervisedExecutor:
    def test_worker_kill_retried_to_success(self, tmp_path):
        make_scenario = partial(
            chaos_helpers.kill_once_tdown,
            marker_dir=str(tmp_path),
            kill_key=(3, 0),
        )
        points, runs, report = sweep_batch(
            [3],
            make_scenario,
            MAKE_CONFIG,
            seeds=(0, 1),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=2, trial_timeout=SLACK),
        )
        assert points[0].succeeded == 2
        # The killed trial (seed 0) was re-run.
        assert [run.attempt for run in runs] == [2, 1]
        assert report.worker_deaths == 1
        assert report.worker_restarts == 1
        assert report.retries == 1
        assert report.exhausted == 0
        assert report.metrics.counters == {
            "resilience.completed": 2,
            "resilience.retries": 1,
            "resilience.worker_deaths": 1,
            "resilience.worker_restarts": 1,
        }

    def test_hung_trial_times_out_and_is_recorded(self):
        points, [failure], report = sweep_batch(
            [3],
            chaos_helpers.hang_always_tdown,
            MAKE_CONFIG,
            seeds=(0,),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=0, trial_timeout=SNAP),
        )
        assert points[0].succeeded == 0
        assert points[0].timeouts == 1
        assert isinstance(failure, TrialTimeout)
        assert isinstance(failure.error, TrialTimeoutError)
        assert failure.timeout == SNAP
        assert failure.attempt == 1
        assert failure.elapsed >= SNAP
        assert report.timeouts == 1

    def test_hang_once_then_success(self, tmp_path):
        make_scenario = partial(
            chaos_helpers.hang_once_tdown,
            marker_dir=str(tmp_path),
            hang_key=(3, 0),
        )
        points, [run], report = sweep_batch(
            [3],
            make_scenario,
            MAKE_CONFIG,
            seeds=(0,),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=1, trial_timeout=SNAP),
        )
        assert points[0].succeeded == 1
        assert run.attempt == 2
        assert report.timeouts == 1
        assert report.retries == 1
        assert report.completed == 1

    def test_exhausted_worker_crash_recorded(self):
        _points, [failure], report = sweep_batch(
            [3],
            chaos_helpers.kill_always_tdown,
            MAKE_CONFIG,
            seeds=(0,),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=1, trial_timeout=SLACK),
        )
        assert isinstance(failure.error, WorkerCrashError)
        assert failure.error.exitcode == -9
        assert failure.attempt == 2
        assert report.worker_deaths == 2
        assert report.exhausted == 1

    def test_simulation_failures_are_not_retried(self):
        """Deterministic failures (budget exhaustion) must come back as
        plain first-attempt TrialFailures — retrying them would waste
        the whole backoff budget failing identically."""
        points, [_run, failure], report = sweep_batch(
            [3, 6],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0,),
            settings=TIGHT,
            jobs=2,
            policy=ResiliencePolicy(max_retries=3, trial_timeout=SLACK),
        )
        assert [(p.succeeded, p.failed) for p in points] == [(1, 0), (0, 1)]
        assert failure.attempt == 1
        assert report.retries == 0

    def test_progress_callback_sees_every_trial(self):
        seen = []
        TrialRunner(2, ResiliencePolicy(trial_timeout=SLACK)).run(
            [
                TrialTask(x, seed, clique_tdown_trial, FAST, SETTINGS)
                for x in (3, 4)
                for seed in (0, 1)
            ],
            lambda task, outcome: seen.append((task, outcome)),
        )
        assert len(seen) == 4
        assert {(task.x, task.seed) for task, _ in seen} == {
            (3, 0), (3, 1), (4, 0), (4, 1),
        }
        # The callback is the outcome stream: each call carries its run.
        assert all(
            (outcome.seed, outcome.attempt) == (task.seed, 1)
            for task, outcome in seen
        )

    def test_workers_are_reused(self, tmp_path):
        points, _runs, report = sweep_batch(
            [3],
            partial(chaos_helpers.logged, log_dir=str(tmp_path)),
            MAKE_CONFIG,
            seeds=tuple(range(6)),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(trial_timeout=SLACK),
        )
        assert points[0].succeeded == 6
        log = chaos_helpers.trial_log(tmp_path)
        assert sorted((x, seed) for _pid, x, seed in log) == [
            (3, seed) for seed in range(6)
        ]
        pids = {pid for pid, _x, _seed in log}
        assert 1 <= len(pids) <= 2  # six trials, two processes: no fork per trial
        assert os.getpid() not in pids
        assert report.worker_restarts == 0

    def test_dead_worker_is_replaced_and_the_survivor_kept(self, tmp_path):
        points, _runs, report = sweep_batch(
            [3],
            partial(
                chaos_helpers.logged,
                log_dir=str(tmp_path),
                delay_s=0.1,
                inner=partial(
                    chaos_helpers.kill_once_tdown,
                    marker_dir=str(tmp_path),
                    kill_key=(3, 2),
                ),
            ),
            MAKE_CONFIG,
            seeds=tuple(range(6)),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=1, trial_timeout=SLACK),
        )
        assert points[0].succeeded == 6
        log = chaos_helpers.trial_log(tmp_path)
        died_at = log.index(next(e for e in log if e[1:] == (3, 2)))
        victim = log[died_at][0]
        before = {pid for pid, _x, _seed in log[:died_at]} | {victim}
        after = {pid for pid, _x, _seed in log[died_at + 1:]}
        assert victim not in after  # it is dead
        [survivor] = before - {victim}
        assert survivor in after  # kept its PID, and kept working
        assert len(after - before) == 1  # exactly one replacement
        assert (report.worker_deaths, report.worker_restarts) == (1, 1)

    def test_deadline_belongs_to_the_assignment_not_the_process(self, tmp_path):
        """One trial hangs and is killed at SNAP; meanwhile the surviving
        worker runs trial after trial for longer than SNAP in all, and the
        hung trial's retry starts on a fresh clock — one timeout, no more."""
        points, runs, report = sweep_batch(
            [3],
            partial(
                chaos_helpers.logged,
                log_dir=str(tmp_path),
                delay_s=0.3,
                inner=partial(
                    chaos_helpers.hang_once_tdown,
                    marker_dir=str(tmp_path),
                    hang_key=(3, 0),
                ),
            ),
            MAKE_CONFIG,
            seeds=tuple(range(5)),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(max_retries=1, trial_timeout=SNAP),
        )
        assert points[0].succeeded == 5
        assert runs[0].attempt == 2
        assert (report.timeouts, report.retries) == (1, 1)
        log = chaos_helpers.trial_log(tmp_path)
        survivor = next(pid for pid, _x, seed in log if seed == 1)
        assert sum(pid == survivor for pid, _x, _seed in log) >= 3  # > SNAP

    def test_no_policy_dead_worker_aborts_with_a_typed_error(self, tmp_path):
        """Without a policy nothing is retried: the first dead worker ends
        the sweep, and the error says which trial and how it died."""
        with pytest.raises(WorkerCrashError) as excinfo:
            sweep(
                [3],
                partial(
                    chaos_helpers.kill_once_tdown,
                    marker_dir=str(tmp_path),
                    kill_key=(3, 1),
                ),
                MAKE_CONFIG,
                seeds=(0, 1, 2),
                settings=SETTINGS,
                jobs=2,
            )
        assert excinfo.value.exitcode == -9
        assert "(x=3, seed=1)" in str(excinfo.value)


class TestReportThreading:
    """SupervisionReports travel through return values, not globals: one
    report per journaled sweep, to its caller."""

    def journaled(self, tmp_path, **kwargs):
        reports = []
        checkpointed_sweep(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=tmp_path / "sweep.jsonl",
            seeds=(0, 1),
            settings=SETTINGS,
            on_report=reports.append,
            **kwargs,
        )
        return reports

    def test_jobs1_resilient_sweep_reports_zero_supervision(self, tmp_path):
        [report] = self.journaled(tmp_path, jobs=1, policy=ResiliencePolicy())
        assert report.trials == 2
        assert report.completed == 2
        assert (report.retries, report.timeouts, report.worker_deaths) == (
            0, 0, 0,
        )
        assert report.metrics is None

    def test_no_policy_means_no_report(self, tmp_path):
        assert self.journaled(tmp_path, jobs=1) == []

    def test_nothing_run_means_no_report(self, tmp_path):
        self.journaled(tmp_path, jobs=1)
        assert self.journaled(tmp_path, jobs=2, policy=ResiliencePolicy()) == []

    def test_pool_report_snapshots_its_nonzero_counts(self):
        _points, _runs, report = sweep_batch(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=(0, 1),
            settings=SETTINGS,
            jobs=2,
            policy=ResiliencePolicy(),
        )
        assert (report.trials, report.completed) == (2, 2)
        assert report.metrics.counters == {"resilience.completed": 2}
