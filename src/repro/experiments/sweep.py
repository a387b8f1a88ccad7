"""Parameter sweeps with repeated seeded trials and per-trial fault isolation.

Every figure in the paper is a sweep: an x-axis (topology size or MRAI
value), one or more measured series, each point averaged over repeated runs
("the simulation were repeated for a number of times").  Each point is one
:class:`PointSummary`, reduced from the trials' outcomes by
:func:`record_of_outcome` and :func:`summarize_point` — whether a figure
driver asked :func:`run_trials` for the trials or :func:`sweep` ran them.

Churn sweeps add a survivability requirement: a single pathological
(scenario, seed) pair — a flap period that resonates with MRAI, a crash that
trips the event budget — must not destroy the other trials' work.  A
failed trial is recorded as a :class:`TrialFailure` (with the
post-mortem :class:`~repro.experiments.diagnostics.DiagnosticSnapshot` when
the runner captured one) and the sweep continues; each x's
:class:`PointSummary` counts the trials that succeeded and failed, and
averages the metrics of the ones that succeeded.  A claim driver asks
:func:`run_trials` instead, so one failed trial fails its row.  Programming
errors — :class:`~repro.errors.ProtocolError`, bad configuration — still
propagate: they invalidate the whole sweep, not one trial.

The trial runner
----------------

Every trial a driver asks for goes through one :class:`TrialRunner`,
installed by the caller (:func:`trial_runner`: ``repro figure``, a figure
job, a test).  Drivers only say which trials they need, as one list of
:class:`TrialTask` specs; the runner owns how they run — ``jobs``, the
resilience policy, the telemetry overlay — and simulates each distinct
trial once per scope.  Its new trials go through :func:`dispatch`: with
``jobs=N`` to the supervised pool of ``N`` reused workers in
:mod:`~repro.experiments.resilience` (``0``: one per CPU; ``1``:
in-process, the reference).  Outcomes come back in task order whichever
worker finished first, so a parallel sweep is *bit-identical* to a
sequential one (``digests=True`` attaches the
:class:`~repro.analysis.determinism.RunFingerprint` that proves it).  A
journaled sweep calls :func:`dispatch` itself and keeps no run.

Crossing the process boundary constrains the factories: closures cannot be
pickled, so ``jobs > 1`` requires module-level factory functions, bound to
their fixed parameters with :func:`functools.partial` (the built-in figure
drivers already comply).  A ``partial`` equals only itself, so tasks meet
in the runner's memo only when they share one bound factory object.
Fault isolation survives the boundary — a worker trial that raises
:class:`~repro.errors.SimulationError` comes back as a picklable
:class:`TrialFailure` carrying its diagnostic snapshot, while
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


def constant_config(x: float, *, config: BgpConfig) -> BgpConfig:
    """``make_config`` that ignores x: bind ``config`` with
    ``functools.partial(constant_config, config=...)``."""
    return config


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

    A :class:`TrialFailure` subclass so every consumer (a
    :class:`PointSummary`'s ``failed``, a journal record) sees it
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


#: Journal line schema version, embedded in every :class:`TrialRecord`.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrialRecord:
    """One finished trial reduced to journal-able plain data.

    ``status`` is ``"ok"``, ``"failed"``, or ``"timeout"``; ``metrics``
    is the successful trial's ``summary_row()`` (empty otherwise);
    ``error``/``kind`` preserve the failure message and exception class
    name for post-mortems; ``attempt`` is the retry provenance;
    ``digest`` is the trial's SHA-256 run fingerprint when the sweep ran
    with ``digests=True`` (empty otherwise) — the equivalence oracle a
    resumed service job is checked against.
    """

    x: float
    seed: int
    status: str
    attempt: int = 1
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    kind: str = ""
    digest: str = ""

    @property
    def key(self) -> Tuple[float, int]:
        return (self.x, self.seed)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def payload(self) -> Dict:
        return {
            "schema": SCHEMA_VERSION,
            "x": self.x,
            "seed": self.seed,
            "status": self.status,
            "attempt": self.attempt,
            "metrics": dict(self.metrics),
            "error": self.error,
            "kind": self.kind,
            "digest": self.digest,
        }

    @classmethod
    def from_payload(cls, data: Dict) -> "TrialRecord":
        return cls(
            x=data["x"],
            seed=data["seed"],
            status=data["status"],
            attempt=data.get("attempt", 1),
            metrics=dict(data.get("metrics", {})),
            error=data.get("error", ""),
            kind=data.get("kind", ""),
            digest=data.get("digest", ""),
        )


@dataclass(frozen=True)
class PointSummary:
    """One x value's trials: how many succeeded, failed and timed out, and
    the trial mean of every ``summary_row()`` metric over the ok trials
    (``{}`` when none succeeded)."""

    x: float
    succeeded: int
    failed: int
    timeouts: int
    metrics: Dict[str, float]

    @property
    def trials(self) -> int:
        return self.succeeded + self.failed


def summarize_point(x: float, records: Sequence[TrialRecord]) -> PointSummary:
    """Aggregate one x value's trial records (mean over the ok trials)."""
    ok = [record for record in records if record.ok]
    failed = [record for record in records if not record.ok]
    timeouts = sum(1 for record in failed if record.status == "timeout")
    metrics: Dict[str, float] = {}
    if ok:
        keys = sorted(ok[0].metrics)
        metrics = {
            key: mean([record.metrics.get(key, 0.0) for record in ok])
            for key in keys
        }
    return PointSummary(
        x=x,
        succeeded=len(ok),
        failed=len(failed),
        timeouts=timeouts,
        metrics=metrics,
    )


def record_of_outcome(x: float, outcome: TrialOutcome) -> TrialRecord:
    """Reduce one finished trial at ``x`` — an :class:`~repro.experiments.
    runner.ExperimentRun` or a :class:`TrialFailure` (:class:`TrialTimeout`
    included) — to its journal record."""
    if isinstance(outcome, TrialFailure):
        return TrialRecord(
            x=x,
            seed=outcome.seed,
            status="timeout" if isinstance(outcome, TrialTimeout) else "failed",
            attempt=outcome.attempt,
            error=str(outcome.error),
            kind=type(outcome.error).__name__,
        )
    try:
        metrics = {
            key: float(value)
            for key, value in outcome.result.summary_row().items()
        }
    except AnalysisError:  # pragma: no cover - defensive
        metrics = {}
    fingerprint = outcome.fingerprint
    return TrialRecord(
        x=x,
        seed=outcome.seed,
        status="ok",
        attempt=outcome.attempt,
        metrics=metrics,
        digest=fingerprint.digest if fingerprint is not None else "",
    )


def summarize_points(
    xs: Sequence[float], outcomes: Sequence[TrialOutcome]
) -> List[PointSummary]:
    """One :class:`PointSummary` per x of ``outcomes`` listed x-major, the
    same number of trials at every x."""
    per_x = len(outcomes) // len(xs)
    return [
        summarize_point(
            x,
            [
                record_of_outcome(x, outcome)
                for outcome in outcomes[index * per_x : (index + 1) * per_x]
            ],
        )
        for index, x in enumerate(xs)
    ]


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


def _resolve_jobs(jobs: int) -> int:
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise AnalysisError(f"jobs must be an int, got {jobs!r}")
    if jobs < 0:
        raise AnalysisError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _check_tasks_picklable(tasks: Sequence[TrialTask]) -> None:
    """Fail fast, with a remedy, before sending closures to a worker: one
    task per distinct ``(make_scenario, make_policy)`` pair is pickled."""
    firsts: Dict[Tuple[object, object], TrialTask] = {}
    for task in tasks:
        firsts.setdefault((task.make_scenario, task.make_policy), task)
    for task in firsts.values():
        try:
            pickle.dumps(task)
        except Exception as exc:
            raise AnalysisError(
                f"sweep factories cannot cross the process boundary ({exc}); "
                f"jobs > 1 needs module-level factories, with fixed "
                f"parameters bound by functools.partial(fn, **kwargs) — "
                f"closures and lambdas only work with jobs=1"
            ) from exc


def dispatch(
    tasks: Sequence[TrialTask],
    jobs: int,
    policy: Optional[ResiliencePolicy],
    on_outcome: OutcomeCallback,
) -> SupervisionReport:
    """Run every task once, hand each outcome to ``on_outcome(task,
    outcome)`` as it lands, keep none, and return the supervision report:
    in-process in task order when ``jobs == 1`` (the only path that takes
    closures), else on the supervised pool of at most ``jobs`` workers."""
    jobs = _resolve_jobs(jobs)
    if jobs == 1 or not tasks:
        for task in tasks:
            on_outcome(task, run_trial_resilient(task))
        # In-process: completions only, zero supervision events.
        return SupervisionReport(trials=len(tasks), completed=len(tasks))
    _check_tasks_picklable(tasks)
    return run_tasks_supervised(
        [replace(task, index=index) for index, task in enumerate(tasks)],
        jobs,
        policy,
        on_outcome,
    )


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
        supervision = dispatch(fresh, self.jobs, self.policy, land)
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
    policy: Optional[ResiliencePolicy] = None,
) -> List[PointSummary]:
    """Run ``len(xs) × len(seeds)`` experiments and group them by x.

    The scenario factory receives the trial seed so randomized scenarios
    (Internet-derived destination/link choice) vary across trials, exactly
    as the paper repeats runs "with different destination ASes and failed
    links".  ``make_config(x)`` is called here, once per x.  Returns one
    :class:`PointSummary` per x, in ``xs`` order.

    A trial that raises :class:`~repro.errors.SimulationError` (budget
    exhaustion, non-convergence) counts in its point's ``failed`` and the
    sweep continues; a caller that wants the first failure raised asks
    :func:`run_trials` instead.  Non-simulation errors (protocol
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
    outcomes, _report = runner.run(tasks)

    # Outcomes come back in task order whichever worker finished first:
    # the REP103-clean path that makes jobs=N output identical to jobs=1.
    return summarize_points(xs, outcomes)
