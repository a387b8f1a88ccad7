"""Parameter sweeps with repeated seeded trials and per-trial fault isolation.

Every figure in the paper is a sweep: an x-axis (topology size or MRAI
value), one or more measured series, each point averaged over repeated runs
("the simulation were repeated for a number of times").  :func:`sweep`
captures that pattern once so the per-figure drivers stay declarative.

Churn sweeps add a survivability requirement: a single pathological
(scenario, seed) pair — a flap period that resonates with MRAI, a crash that
trips the event budget — must not destroy the other trials' work.  A
failed trial is recorded as a :class:`TrialFailure` (with the
post-mortem :class:`~repro.experiments.diagnostics.DiagnosticSnapshot` when
the runner captured one) and the sweep continues; each
:class:`SweepPoint` reports how many of its trials succeeded.  Programming
errors — :class:`~repro.errors.ProtocolError`, bad configuration — still
propagate: they invalidate the whole sweep, not one trial.

The trial runner
----------------

Every trial goes through one :class:`TrialRunner`, installed by the
caller (:func:`trial_runner`: ``repro figure``, a figure job, a test).
Drivers only say which trials they need, as one list of
:class:`TrialTask` specs; the runner owns how they run — ``jobs``, the
resilience policy, the telemetry overlay — and simulates each distinct
trial once per scope.  With ``jobs=N`` its new trials go to the
supervised pool of ``N`` reused workers in
:mod:`~repro.experiments.resilience` (``0``: one per CPU; ``1``:
in-process, the reference).  Outcomes come back in task order whichever
worker finished first, so a parallel sweep is *bit-identical* to a
sequential one (``digests=True`` attaches the
:class:`~repro.analysis.determinism.RunFingerprint` that proves it).

Crossing the process boundary constrains the factories: closures cannot be
pickled, so ``jobs > 1`` requires module-level factory functions or
:func:`~repro.experiments.spec.factory_ref` wrappers (the built-in figure
drivers already comply).  Fault isolation survives the boundary — a worker
trial that raises :class:`~repro.errors.SimulationError` comes back as a
picklable :class:`TrialFailure` carrying its diagnostic snapshot, while
:class:`~repro.errors.SanitizerError` (the simulator itself is wrong)
still aborts the whole sweep from any worker, and so does a worker that
dies (:class:`~repro.errors.WorkerCrashError`) unless a
:class:`~repro.experiments.resilience.ResiliencePolicy` grants retries.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional
from typing import Sequence, Tuple, Union

from ..bgp import BgpConfig
from ..core import LoopStudyResult
from ..errors import AnalysisError, SimulationError
from ..util.stats import mean
from .config import RunSettings
from .resilience import (
    ResiliencePolicy,
    SupervisionReport,
    run_tasks_supervised,
    run_trial_resilient,
)
from .runner import ExperimentRun, PolicyFactory, run_experiment
from .scenarios import Scenario

ScenarioFactory = Callable[[float, int], Scenario]
"""``factory(x, seed) -> Scenario`` for the sweep's x value and trial seed."""

ConfigFactory = Callable[[float], BgpConfig]
"""``factory(x) -> BgpConfig`` for the sweep's x value."""


@dataclass(frozen=True)
class TrialFailure:
    """One trial that died, preserved for the post-mortem.

    Frozen and picklable (including the error's diagnostic snapshot, see
    :meth:`~repro.errors.BudgetExceededError.__reduce__`), so failures
    recorded inside pool workers survive the trip home.
    """

    x: float
    seed: int
    error: SimulationError
    #: Which attempt produced this terminal failure (1 = first try; > 1
    #: means the resilience layer retried a transient failure this many
    #: times before giving up).
    attempt: int = 1
    #: Wall-clock seconds the final attempt ran (harness-side
    #: observability).
    elapsed: float = 0.0

    @property
    def snapshot(self):
        """The diagnostic snapshot, when the runner captured one."""
        return getattr(self.error, "snapshot", None)

    def __repr__(self) -> str:
        # Stable across reruns: ``elapsed`` is wall clock and deliberately
        # excluded so failure reprs can be diffed between runs and asserted
        # on in tests.
        return (
            f"TrialFailure(x={self.x}, seed={self.seed}, "
            f"attempt={self.attempt}: {self.error})"
        )


@dataclass(frozen=True)
class TrialTimeout(TrialFailure):
    """A trial killed by the per-trial wall-clock watchdog.

    A :class:`TrialFailure` subclass so every existing consumer
    (``failures_of``, ``SweepPoint.failed``, a journal record) sees it
    transparently; ``error`` is always a
    :class:`~repro.errors.TrialTimeoutError`.  Only ``jobs > 1`` with a
    :class:`~repro.experiments.resilience.ResiliencePolicy` that sets
    ``trial_timeout`` produces these — an in-process trial cannot be
    preempted.
    """

    #: The wall-clock budget (seconds) the trial exceeded.
    timeout: float = 0.0

    def __repr__(self) -> str:
        return (
            f"TrialTimeout(x={self.x}, seed={self.seed}, "
            f"attempt={self.attempt}, timeout={self.timeout}: {self.error})"
        )


@dataclass
class SweepPoint:
    """All trials at one x value, successful and failed."""

    x: float
    runs: List[ExperimentRun] = field(default_factory=list)
    failures: List[TrialFailure] = field(default_factory=list)

    @property
    def results(self) -> List[LoopStudyResult]:
        return [run.result for run in self.runs]

    @property
    def trials(self) -> int:
        """Trials attempted at this point."""
        return len(self.runs) + len(self.failures)

    @property
    def succeeded(self) -> int:
        """Trials that completed and were measured."""
        return len(self.runs)

    @property
    def failed(self) -> int:
        """Trials that died (recorded in :attr:`failures`)."""
        return len(self.failures)

    @property
    def timeouts(self) -> int:
        """Failed trials that were watchdog-killed (:class:`TrialTimeout`)."""
        return sum(
            1 for failure in self.failures if isinstance(failure, TrialTimeout)
        )

    def mean_metric(self, name: str) -> float:
        """Trial-mean of one ``LoopStudyResult.summary_row()`` metric.

        Computed over the *successful* trials; raises :class:`AnalysisError`
        (never ``ZeroDivisionError``) when none survived.
        """
        values = [result.summary_row()[name] for result in self.results]
        if not values:
            raise AnalysisError(
                f"no successful runs at x={self.x} "
                f"({self.failed} of {self.trials} trials failed)"
            )
        return mean(values)

    def metrics(self) -> Dict[str, float]:
        """Trial-mean of every summary metric (successful trials only)."""
        if not self.runs:
            raise AnalysisError(
                f"no successful runs at x={self.x} "
                f"({self.failed} of {self.trials} trials failed)"
            )
        keys = self.results[0].summary_row().keys()
        return {key: self.mean_metric(key) for key in keys}


@dataclass(frozen=True)
class TrialTask:
    """One trial, fully specified: what the runner memoizes and ships.

    ``make_policy(x, seed)``, when set, builds the per-node policy
    assignment.  Tasks are equal when every field but ``index`` (a slot
    in one executor batch) is.
    """

    x: float
    seed: int
    make_scenario: ScenarioFactory
    config: BgpConfig
    settings: RunSettings = RunSettings()
    make_policy: Optional[Callable[[float, int], PolicyFactory]] = None
    digests: bool = False
    index: int = field(default=0, compare=False)


TrialOutcome = Union[ExperimentRun, TrialFailure]

OutcomeCallback = Callable[[TrialTask, TrialOutcome], None]
"""``on_outcome(task, outcome)``: one finished trial, from the pool up to
the service; the trial is ok when ``outcome`` is not a :class:`TrialFailure`."""


def run_trial(task: TrialTask) -> TrialOutcome:
    """Execute one trial; the worker-side entry point of a parallel batch.

    Module-level (not a closure) so pool workers import it by reference.
    :class:`~repro.errors.SimulationError` — the per-trial fault-isolation
    class — is converted to a :class:`TrialFailure`; everything else
    (sanitizer trips, protocol invariant violations, config errors)
    propagates and aborts the batch from whichever process it ran in.
    """
    scenario = task.make_scenario(task.x, task.seed)
    make_policy = task.make_policy
    try:
        run = run_experiment(
            scenario,
            task.config,
            settings=task.settings,
            seed=task.seed,
            keep_network=task.digests,
            policy_factory=make_policy(task.x, task.seed) if make_policy else None,
        )
    except SimulationError as exc:
        return TrialFailure(x=task.x, seed=task.seed, error=exc)
    if task.digests:
        # Imported lazily: analysis.determinism itself imports this package.
        from ..analysis.determinism import fingerprint_run

        run.fingerprint = fingerprint_run(run)
        # The live network (scheduler callbacks, channel closures) is not
        # picklable and was only kept to fingerprint the trace; drop it so
        # sequential and parallel runs return identical objects.
        run.network = None
    return run


#: What ``policy=None`` means to the executor: no retries, no watchdog, and
#: a dead worker aborts the batch.
_NO_RETRIES = ResiliencePolicy(max_retries=0, on_exhausted="raise")


def _resolve_jobs(jobs: int) -> int:
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise AnalysisError(f"jobs must be an int, got {jobs!r}")
    if jobs < 0:
        raise AnalysisError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _check_tasks_picklable(task: TrialTask) -> None:
    """Fail fast, with a remedy, before sending closures to a worker."""
    try:
        pickle.dumps(task)
    except Exception as exc:
        raise AnalysisError(
            f"sweep factories cannot cross the process boundary ({exc}); "
            f"jobs > 1 needs module-level factories or "
            f"repro.experiments.factory_ref(...) wrappers — closures and "
            f"lambdas only work with jobs=1"
        ) from exc


class TrialRunner:
    """The one seam between the drivers and :func:`run_experiment`.

    It owns *how* trials run: ``jobs`` (``1`` in-process, ``N > 1`` the
    supervised pool, ``0`` one worker per CPU), the resilience ``policy``
    and ``telemetry``, an overlay switching ``settings.telemetry`` on.
    Each distinct trial runs once per runner; a repeat request gets the
    stored outcome, a shared object nothing may mutate.  ``outcomes``
    lists every requested outcome until :meth:`close` drops it.
    """

    def __init__(
        self,
        jobs: int = 1,
        policy: Optional[ResiliencePolicy] = None,
        telemetry: bool = False,
    ) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.policy = policy
        self.telemetry = telemetry
        self.requested = 0
        self.simulated = 0
        self.outcomes: List[TrialOutcome] = []
        self._memo: Dict[TrialTask, TrialOutcome] = {}

    def run(
        self,
        tasks: Sequence[TrialTask],
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> Tuple[List[TrialOutcome], SupervisionReport]:
        """Every task's outcome in task order, and the supervision report.

        ``on_outcome(task, outcome)`` hears of each task as its outcome
        lands: stored outcomes first, then the rest in completion order.
        """
        if self.telemetry:
            tasks = [
                replace(task, settings=replace(task.settings, telemetry=True))
                for task in tasks
            ]
        fresh = list(dict.fromkeys(task for task in tasks if task not in self._memo))
        waiting: Dict[TrialTask, List[TrialTask]] = {task: [] for task in fresh}
        report = on_outcome or (lambda task, outcome: None)

        def land(task: TrialTask, outcome: TrialOutcome) -> None:
            self._memo[task] = outcome
            for requester in waiting[task]:
                report(requester, outcome)

        for task in tasks:
            if task in waiting:
                waiting[task].append(task)
            else:
                report(task, self._memo[task])
        if self.jobs == 1 or not fresh:
            for task in fresh:
                land(task, run_trial_resilient(task))
            # In-process: completions only, zero supervision events.
            supervision = SupervisionReport(trials=len(fresh), completed=len(fresh))
        else:
            _check_tasks_picklable(fresh[0])
            supervision = run_tasks_supervised(
                [replace(task, index=index) for index, task in enumerate(fresh)],
                self.jobs,
                self.policy or _NO_RETRIES,
                land,
            )
        self.simulated += len(fresh)
        self.requested += len(tasks)
        outcomes = [self._memo[task] for task in tasks]
        self.outcomes.extend(outcomes)
        return outcomes, supervision

    def close(self) -> None:
        """Drop the memo and the outcome list (the counts stay)."""
        self._memo.clear()
        self.outcomes.clear()


_INSTALLED: ContextVar[Optional[TrialRunner]] = ContextVar(
    "repro_trial_runner", default=None
)


@contextmanager
def trial_runner(
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
    telemetry: bool = False,
) -> Iterator[TrialRunner]:
    """Install a fresh :class:`TrialRunner` for the ``with`` block.

    Every driver and :func:`sweep` inside asks it for trials; it is
    closed on exit, so nothing it ran outlives the block.
    """
    runner = TrialRunner(jobs, policy, telemetry)
    token = _INSTALLED.set(runner)
    try:
        yield runner
    finally:
        _INSTALLED.reset(token)
        runner.close()


def run_trials(tasks: Sequence[TrialTask]) -> List[ExperimentRun]:
    """The installed runner's runs of ``tasks``, in task order; a failed
    trial raises its error, as a direct :func:`run_experiment` call would.
    """
    outcomes, _report = (_INSTALLED.get() or TrialRunner()).run(tasks)
    for outcome in outcomes:
        if isinstance(outcome, TrialFailure):
            raise outcome.error
    return outcomes


def sweep(
    xs: Sequence[float],
    make_scenario: ScenarioFactory,
    make_config: ConfigFactory,
    seeds: Sequence[int] = (0,),
    settings: RunSettings = RunSettings(),
    jobs: Optional[int] = None,
    digests: bool = False,
    on_outcome: Optional[OutcomeCallback] = None,
    policy: Optional[ResiliencePolicy] = None,
    on_report: Optional[Callable[[SupervisionReport], None]] = None,
) -> List[SweepPoint]:
    """Run ``len(xs) × len(seeds)`` experiments and group them by x.

    The scenario factory receives the trial seed so randomized scenarios
    (Internet-derived destination/link choice) vary across trials, exactly
    as the paper repeats runs "with different destination ASes and failed
    links".  ``make_config(x)`` is called here, once per trial.

    A trial that raises :class:`~repro.errors.SimulationError` (budget
    exhaustion, non-convergence) is appended to its point's ``failures``
    and the sweep continues (:func:`failures_of` lists them in
    ``(x, seed)`` order); a caller that wants the first failure raised
    asks :func:`run_trials` instead.  Non-simulation errors (protocol
    invariant violations, sanitizer trips, bad configuration) always
    propagate — from workers too.

    ``jobs`` and ``policy`` left at ``None`` run the sweep on the
    installed runner (:func:`trial_runner`; in-process when none is
    installed).  Either one set runs it on a private
    :class:`TrialRunner`: ``jobs=1`` in-process — the reference path, and
    the only one that accepts closures; ``N > 1`` the supervised pool of
    ``N`` reused worker processes; ``0`` one worker per CPU.  The
    ``policy`` (:class:`~repro.experiments.resilience.ResiliencePolicy`)
    sets the pool's retries and watchdog; without one the first dead
    worker aborts the sweep with a :class:`~repro.errors.WorkerCrashError`.
    A retried trial re-runs the identical :class:`TrialTask`, so neither
    knob changes a digest.

    ``digests=True`` attaches a SHA-256
    :class:`~repro.analysis.determinism.RunFingerprint` (trace, FIB log,
    summary metrics) to each successful ``run.fingerprint``.
    ``on_outcome(task, outcome)`` observes every finished trial
    (completion order when parallel) — the sweep's outcome stream.
    ``on_report`` receives the sweep's
    :class:`~repro.experiments.resilience.SupervisionReport` when the
    runner has a policy; each caller owns its own counters.
    """
    if not xs:
        raise AnalysisError("sweep needs at least one x value")
    if not seeds:
        raise AnalysisError("sweep needs at least one seed")
    runner = _INSTALLED.get() or TrialRunner()
    if jobs is not None or policy is not None:
        runner = TrialRunner(1 if jobs is None else jobs, policy)

    tasks: List[TrialTask] = []
    for x in xs:
        config = make_config(x)
        for seed in seeds:
            tasks.append(
                TrialTask(x, seed, make_scenario, config, settings, digests=digests)
            )
    outcomes, report = runner.run(tasks, on_outcome)
    if on_report is not None and runner.policy is not None:
        on_report(report)

    # Deterministic reassembly: walk outcomes in task order — the
    # REP103-clean path that makes jobs=N output identical to jobs=1.
    points: List[SweepPoint] = []
    remaining = iter(outcomes)
    for x in xs:
        point = SweepPoint(x=x)
        points.append(point)
        for _seed in seeds:
            outcome = next(remaining)
            if isinstance(outcome, TrialFailure):
                point.failures.append(outcome)
            else:
                point.runs.append(outcome)
    return points


def failures_of(points: Sequence[SweepPoint]) -> List[TrialFailure]:
    """Every recorded trial failure across the sweep, sorted by ``(x, seed)``.

    Sorted explicitly (not just "appended in task order") so the output
    is deterministic even for failure lists assembled out of order — e.g.
    by the supervised executor's retry scheduling or by callers merging
    points from resumed journal segments.
    """
    failures = [failure for point in points for failure in point.failures]
    return sorted(failures, key=lambda failure: (failure.x, failure.seed))


def series(points: Sequence[SweepPoint], metric: str) -> List[float]:
    """Extract one metric's trial-mean series across the sweep."""
    return [point.mean_metric(metric) for point in points]


def xs_of(points: Sequence[SweepPoint]) -> List[float]:
    """The sweep's x values, in run order."""
    return [point.x for point in points]
