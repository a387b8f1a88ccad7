"""The trial runner: one seam between the drivers and the simulator.

Every claim row asks the installed runner for its trials, and within one
runner each distinct trial is simulated once.  These tests pin the batch
counts, that sharing trials never changes a row's output, and that the
memo dies with its scope.
"""

import gc
import weakref
from functools import partial

import pytest

from repro.bgp import BgpConfig
from repro.errors import BudgetExceededError
from repro.experiments import (
    RunSettings,
    TrialTask,
    bclique_tflap_trial,
    clique_tdown_trial,
    trial_runner,
)
from repro.experiments.figures import CLAIMS, figure4a
from repro.experiments.sweep import TrialRunner, run_trials

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)


def quick_render(claim_id: str) -> str:
    claim = CLAIMS[claim_id]
    return claim.driver(**dict(claim.quick or {})).render()


@pytest.fixture(scope="module")
def quick_batch():
    """Every row at its ``--quick`` parameters, in one runner scope."""
    with trial_runner() as runner:
        rendered = {claim_id: quick_render(claim_id) for claim_id in CLAIMS}
    return runner, rendered


def test_quick_batch_simulates_each_distinct_trial_once(quick_batch):
    runner, _rendered = quick_batch
    assert (runner.requested, runner.simulated) == (159, 84)


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_row_renders_the_same_in_the_batch_and_alone(quick_batch, claim_id):
    with trial_runner():
        alone = quick_render(claim_id)
    assert quick_batch[1][claim_id] == alone


def test_scope_exit_drops_every_stored_outcome():
    with trial_runner() as runner:
        figure4a(sizes=(3, 4), mrai=1.0, seeds=(0,))
        stored = weakref.ref(runner.outcomes[0])
    assert (runner.requested, runner.simulated) == (2, 2)
    assert runner.outcomes == [] and runner._memo == {}
    gc.collect()
    assert stored() is None


def test_equal_trials_run_once_and_share_the_outcome():
    task = TrialTask(3, 0, clique_tdown_trial, FAST, SETTINGS)
    twin = TrialTask(3.0, 0, clique_tdown_trial, FAST, SETTINGS, index=7)
    runner = TrialRunner()
    first, _report = runner.run([task, twin])
    (again,), _report = runner.run([task])
    assert first[0] is first[1] is again
    assert (runner.requested, runner.simulated) == (3, 1)


def test_bound_factories_meet_in_the_memo_only_by_identity():
    bound = partial(bclique_tflap_trial, size=3, count=2)
    twin = partial(bclique_tflap_trial, size=3, count=2)
    shared = TrialRunner()
    shared.run([TrialTask(5.0, 0, bound, FAST, SETTINGS)] * 2)
    assert (shared.requested, shared.simulated) == (2, 1)
    separate = TrialRunner()
    separate.run(
        [TrialTask(5.0, 0, factory, FAST, SETTINGS) for factory in (bound, twin)]
    )
    assert (separate.requested, separate.simulated) == (2, 2)


def test_parallel_runner_dedups_and_matches_in_process():
    tasks = [
        TrialTask(n, 0, clique_tdown_trial, FAST, SETTINGS, digests=True)
        for n in (3, 4, 3)
    ]
    sequential, _ = TrialRunner().run(tasks)
    runner = TrialRunner(jobs=2)
    parallel, report = runner.run(tasks)
    assert report.trials == runner.simulated == 2
    assert [run.fingerprint for run in parallel] == [
        run.fingerprint for run in sequential
    ]


def test_telemetry_overlay_reaches_every_trial():
    with trial_runner(telemetry=True):
        (run,) = run_trials([TrialTask(3, 0, clique_tdown_trial, FAST, SETTINGS)])
    assert run.settings.telemetry and run.metrics is not None


def test_run_trials_raises_a_failed_trial():
    tight = RunSettings(failure_guard=0.5, event_budget=200)
    with pytest.raises(BudgetExceededError):
        run_trials([TrialTask(6, 0, clique_tdown_trial, FAST, tight)])
