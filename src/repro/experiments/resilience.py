"""Resilient sweep execution: supervision, timeouts, and retry with backoff.

The parallel sweep executor (PR 3) assumed a well-behaved pool: a worker
OOM-killed mid-trial raised ``BrokenProcessPool`` out of the whole sweep
and discarded every completed trial, and a hung trial held its worker
forever.  Fleet-scale runs (the ROADMAP's always-on sweep service,
Internet-scale trials) make those events routine, so this module replaces
the anonymous pool with a *supervised* executor:

* **one worker process per in-flight trial**, connected by its own pipe,
  so the supervisor always knows exactly which PID runs which
  :class:`~repro.experiments.sweep.TrialTask`;
* **worker death** (killed PID, crash, nonzero exit) loses only that one
  in-flight trial — the supervisor spawns a replacement and re-submits
  the identical task, never the finished ones;
* **per-trial wall-clock timeouts**: a harness-side watchdog kills the
  worker of any trial that exceeds ``policy.trial_timeout`` and converts
  the hang into a :class:`~repro.errors.TrialTimeoutError`;
* **retry with capped exponential backoff** and *deterministic seeded
  jitter* for the transient failure kinds (death, timeout).  A retry
  re-runs the identical ``TrialTask`` in a fresh process, so a retried
  trial's digest is bit-identical to an undisturbed run — resilience
  never perturbs ``digests=True`` equivalence.

Retry/timeout/restart counts are accumulated in a
:class:`~repro.telemetry.registry.MetricsRegistry` and surfaced as a
:class:`SupervisionReport`, returned by :func:`run_tasks_supervised` and
threaded to callers through ``sweep(..., on_report=...)`` — one report
per supervised sweep, owned by that sweep's caller, so a daemon running
many concurrent sweeps never sees another job's counters.

Determinism boundary: this file is harness-side supervision *about* the
simulation, never inside it — like :mod:`repro.telemetry.profiler` it is
a sanctioned REP101 wall-clock exemption (see ``RULE_EXEMPT_SUFFIXES``
in :mod:`repro.analysis.lint`).  Nothing under engine/net/bgp/dataplane
may import it.  The only randomness is the backoff jitter, drawn from a
``random.Random`` seeded purely by ``(task.index, task.seed, attempt)``
— reproducible by construction and invisible to simulation results.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    AnalysisError,
    ConfigError,
    TrialTimeoutError,
    WorkerCrashError,
)
from ..telemetry.registry import MetricsRegistry, MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from .sweep import ProgressCallback, TrialTask

#: Supervisor poll tick (seconds): the upper bound on how stale the
#: watchdog's view of worker liveness/deadlines can be.
_TICK = 0.05

#: Exit code a worker reports when it finished its trial and shipped the
#: outcome; anything else (or a signal death) is a worker crash.
_CLEAN_EXIT = 0


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a sweep survives worker death, hangs, and transient failures.

    ``max_retries``
        Extra attempts granted to a trial after a *transient* failure
        (worker death or watchdog timeout).  ``0`` disables retry; the
        first transient failure is then terminal for that trial.
        Deterministic simulation failures (budget exhaustion,
        non-convergence) are never retried — they would fail identically.
    ``backoff_base`` / ``backoff_cap``
        Re-submission of attempt ``n`` (n >= 2) waits
        ``min(cap, base * 2**(n-2))`` seconds, stretched by the jitter
        below.  The wait is a *cooldown* — other trials keep the workers
        busy while a flaky one sits out its backoff.
    ``jitter``
        Fractional stretch applied to each backoff delay, drawn from a
        ``random.Random`` seeded by ``(task.index, task.seed, attempt)``
        — deterministic for a given sweep shape, so reruns schedule
        identically.
    ``trial_timeout``
        Wall-clock seconds one attempt may run before the watchdog kills
        its worker (``None`` disables the watchdog).  Only enforceable in
        supervised (``jobs > 1``) mode: an in-process trial cannot be
        preempted.
    ``on_exhausted``
        ``"record"`` (default) — a trial whose retries are exhausted is
        recorded as a :class:`~repro.experiments.sweep.TrialTimeout` /
        :class:`~repro.experiments.sweep.TrialFailure` and the sweep
        continues; ``"raise"`` — it aborts the sweep.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    trial_timeout: Optional[float] = None
    on_exhausted: str = "record"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError(
                f"backoff_base/backoff_cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ConfigError(
                f"trial_timeout must be positive seconds or None, got "
                f"{self.trial_timeout}"
            )
        if self.on_exhausted not in ("record", "raise"):
            raise ConfigError(
                f"on_exhausted must be 'record' or 'raise', got "
                f"{self.on_exhausted!r}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts one trial may consume (first try + retries)."""
        return self.max_retries + 1

    def backoff_delay(self, index: int, seed: int, attempt: int) -> float:
        """Cooldown before re-submitting ``attempt`` (>= 2) of one task.

        Capped exponential with deterministic seeded jitter: the stream
        is keyed purely on ``(index, seed, attempt)``, so the same sweep
        shape backs off identically on every run — reproducible even in
        its failure handling.
        """
        if attempt < 2:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 2)))
        if self.jitter == 0 or base == 0:
            return base
        stream = random.Random(
            ((index + 1) * 2654435761 + seed * 40503 + attempt * 97)
            & 0xFFFFFFFF
        )
        return base * (1.0 + self.jitter * stream.random())


@dataclass(frozen=True)
class SupervisionReport:
    """What the supervised executor observed during one sweep.

    ``metrics`` is a frozen :class:`~repro.telemetry.registry.
    MetricsSnapshot` carrying the same counts under the
    ``resilience.*`` names, so sweep-level telemetry aggregation can fold
    supervision activity in alongside simulation metrics.
    """

    trials: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    exhausted: int = 0
    metrics: Optional[MetricsSnapshot] = None

    def render(self) -> str:
        return (
            f"resilience: {self.completed}/{self.trials} trials completed, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.worker_deaths} worker deaths "
            f"({self.worker_restarts} restarts), {self.exhausted} exhausted"
        )

    def merged(self, other: "SupervisionReport") -> "SupervisionReport":
        """Combine two reports (counts sum, telemetry snapshots aggregate).

        The reduction for callers that supervise several sweeps — the
        journaled resume loop runs one sweep per x, the service daemon
        one per job segment — and want a single roll-up.
        """
        snapshots = [
            snap for snap in (self.metrics, other.metrics) if snap is not None
        ]
        return SupervisionReport(
            trials=self.trials + other.trials,
            completed=self.completed + other.completed,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            worker_deaths=self.worker_deaths + other.worker_deaths,
            worker_restarts=self.worker_restarts + other.worker_restarts,
            exhausted=self.exhausted + other.exhausted,
            metrics=(
                MetricsSnapshot.aggregate(snapshots) if snapshots else None
            ),
        )


def _mp_context():
    """Prefer ``fork`` (cheap per-trial workers, inherited imports); fall
    back to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _supervised_child(conn, worker_fn, task) -> None:
    """Worker-process body: run one task, ship the outcome, exit clean.

    Everything — including non-isolated errors like ``SanitizerError`` —
    goes back through the pipe so the supervisor can distinguish "the
    trial raised" from "the worker died".  An outcome that cannot be
    pickled is downgraded to a transportable error.
    """
    try:
        try:
            payload = ("ok", worker_fn(task))
        except BaseException as exc:  # noqa: BLE001 - ferried to supervisor
            payload = ("raise", exc)
        try:
            conn.send(payload)
        except Exception as exc:
            conn.send(
                (
                    "raise",
                    AnalysisError(
                        f"trial outcome for task {task.index} could not "
                        f"cross the process boundary: {exc}"
                    ),
                )
            )
    finally:
        conn.close()


@dataclass
class _Slot:
    """One live worker: its process, pipe, task, and deadlines."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    task: "TrialTask"
    attempt: int
    started: float
    deadline: Optional[float]


@dataclass
class _Counters:
    """Mutable supervision tallies, mirrored into a telemetry registry."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    completed: int = 0
    exhausted: int = 0

    def bump(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        self.registry.counter(f"resilience.{name}").inc()

    def report(self, trials: int) -> SupervisionReport:
        return SupervisionReport(
            trials=trials,
            completed=self.completed,
            retries=self.retries,
            timeouts=self.timeouts,
            worker_deaths=self.worker_deaths,
            worker_restarts=self.worker_restarts,
            exhausted=self.exhausted,
            metrics=self.registry.snapshot(),
        )


def _drain(conn):
    """One non-blocking recv: the worker's payload, or ``"died"`` on EOF."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return "died"


def _reap(slot: _Slot) -> None:
    """Join a finished/killed worker (hard-kill stragglers) and close up."""
    slot.process.join(timeout=5.0)
    if slot.process.is_alive():  # pragma: no cover - defensive
        slot.process.kill()
        slot.process.join(timeout=5.0)
    try:
        slot.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _kill_slots(slots: List[_Slot]) -> None:
    """Hard-stop every live worker (abort path); never raises."""
    for slot in slots:
        try:
            if slot.process.is_alive():
                slot.process.kill()
        except Exception:
            pass
    for slot in slots:
        try:
            slot.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            slot.conn.close()
        except Exception:
            pass


def _exhausted_failure(task: "TrialTask", error, attempt: int, elapsed: float):
    """Build the recorded failure for a trial that ran out of attempts."""
    from .sweep import TrialFailure, TrialTimeout

    if isinstance(error, TrialTimeoutError):
        return TrialTimeout(
            x=task.x,
            seed=task.seed,
            error=error,
            attempt=attempt,
            elapsed=elapsed,
            timeout=error.timeout,
        )
    return TrialFailure(
        x=task.x, seed=task.seed, error=error, attempt=attempt, elapsed=elapsed
    )


def run_tasks_supervised(
    tasks: Sequence["TrialTask"],
    jobs: int,
    policy: ResiliencePolicy,
    worker_fn: Optional[Callable] = None,
    on_progress: Optional["ProgressCallback"] = None,
) -> Tuple[Dict[int, object], SupervisionReport]:
    """Run every task to a final outcome under supervision.

    Returns ``(outcomes keyed by task index, report)``.  Outcomes are
    whatever ``worker_fn`` returned (:class:`~repro.experiments.sweep.
    TrialOutcome` for sweeps) or, for trials whose transient failures
    exhausted the retry budget under ``on_exhausted="record"``, a
    :class:`~repro.experiments.sweep.TrialFailure` /
    :class:`~repro.experiments.sweep.TrialTimeout`.

    A worker that *reports* an exception (rather than dying) aborts the
    whole run — that path carries non-isolated errors such as
    :class:`~repro.errors.SanitizerError`, exactly as the unsupervised
    executor propagates them.
    """
    from .sweep import TrialFailure, TrialProgress, run_trial

    if worker_fn is None:
        worker_fn = run_trial
    if not tasks:
        return {}, _Counters().report(0)

    context = _mp_context()
    counters = _Counters()
    outcomes: Dict[int, object] = {}
    #: (task, attempt) ready to start now, in deterministic task order.
    pending: List[Tuple["TrialTask", int]] = [(task, 1) for task in tasks]
    #: (ready_at, task, attempt) sitting out a backoff cooldown.
    cooling: List[Tuple[float, "TrialTask", int]] = []
    slots: List[_Slot] = []

    def spawn(task: "TrialTask", attempt: int) -> None:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_child,
            args=(child_conn, worker_fn, task),
            name=f"repro-trial-{task.index}-a{attempt}",
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = (
            now + policy.trial_timeout
            if policy.trial_timeout is not None
            else None
        )
        slots.append(
            _Slot(
                process=process,
                conn=parent_conn,
                task=task,
                attempt=attempt,
                started=now,
                deadline=deadline,
            )
        )

    def finish(slot: _Slot, outcome: object) -> None:
        outcomes[slot.task.index] = outcome
        counters.bump("completed")
        if on_progress is not None:
            on_progress(
                TrialProgress(
                    done=len(outcomes),
                    total=len(tasks),
                    x=slot.task.x,
                    seed=slot.task.seed,
                    ok=not isinstance(outcome, TrialFailure),
                )
            )

    def transient_failure(slot: _Slot, error) -> None:
        """Worker death or timeout: retry with backoff, or exhaust."""
        elapsed = time.monotonic() - slot.started
        if slot.attempt < policy.max_attempts:
            counters.bump("retries")
            counters.bump("worker_restarts")
            delay = policy.backoff_delay(
                slot.task.index, slot.task.seed, slot.attempt + 1
            )
            cooling.append(
                (time.monotonic() + delay, slot.task, slot.attempt + 1)
            )
            return
        counters.bump("exhausted")
        if policy.on_exhausted == "raise":
            _kill_slots(slots)
            raise error
        finish(slot, _exhausted_failure(slot.task, error, slot.attempt, elapsed))

    try:
        while pending or cooling or slots:
            now = time.monotonic()
            # Cooldowns that elapsed rejoin the queue in task order.
            ready = [item for item in cooling if item[0] <= now]
            if ready:
                cooling[:] = [item for item in cooling if item[0] > now]
                pending.extend(
                    (task, attempt)
                    for _at, task, attempt in sorted(
                        ready, key=lambda item: item[1].index
                    )
                )
            while pending and len(slots) < jobs:
                task, attempt = pending.pop(0)
                spawn(task, attempt)

            if not slots:
                # Everything is cooling down; sleep until the first wake.
                wake = min(at for at, _t, _a in cooling)
                time.sleep(max(0.0, min(wake - time.monotonic(), _TICK)))
                continue

            timeout = _TICK
            deadlines = [s.deadline for s in slots if s.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(min(deadlines) - now, _TICK))
            readable = multiprocessing.connection.wait(
                [slot.conn for slot in slots], timeout=timeout
            )

            now = time.monotonic()
            retained: List[_Slot] = []
            for slot in slots:
                # One of: ("ok"|"raise", payload), "died", or None (running).
                result = None
                if slot.conn in readable or slot.conn.poll():
                    result = _drain(slot.conn)
                if result is None and not slot.process.is_alive():
                    # Re-poll once: the result may have landed between the
                    # wait() call and the liveness check.
                    result = _drain(slot.conn) if slot.conn.poll() else "died"
                if result is None:
                    if slot.deadline is not None and now >= slot.deadline:
                        slot.process.kill()
                        _reap(slot)
                        counters.bump("timeouts")
                        transient_failure(
                            slot,
                            TrialTimeoutError(
                                f"trial (x={slot.task.x}, "
                                f"seed={slot.task.seed}) exceeded its "
                                f"{policy.trial_timeout}s wall-clock budget "
                                f"on attempt {slot.attempt} and was killed",
                                timeout=policy.trial_timeout or 0.0,
                                attempts=slot.attempt,
                            ),
                        )
                    else:
                        retained.append(slot)
                    continue
                if result == "died":
                    _reap(slot)
                    exitcode = slot.process.exitcode or 0
                    counters.bump("worker_deaths")
                    transient_failure(
                        slot,
                        WorkerCrashError(
                            f"worker running trial (x={slot.task.x}, "
                            f"seed={slot.task.seed}) died with exit code "
                            f"{exitcode} on attempt {slot.attempt}",
                            exitcode=exitcode,
                            attempts=slot.attempt,
                        ),
                    )
                    continue
                kind, payload = result
                _reap(slot)
                if kind == "raise":
                    _kill_slots([s for s in slots if s is not slot])
                    raise payload
                if isinstance(payload, TrialFailure):
                    payload = replace(
                        payload,
                        attempt=slot.attempt,
                        elapsed=now - slot.started,
                    )
                elif hasattr(payload, "attempt"):
                    payload.attempt = slot.attempt
                finish(slot, payload)
            slots = retained
    except BaseException:
        _kill_slots(slots)
        raise

    return outcomes, counters.report(len(tasks))


def run_trial_resilient(task: "TrialTask", policy: Optional[ResiliencePolicy] = None):
    """Execute one trial in-process with attempt/elapsed provenance.

    The ``jobs=1`` resilient path: no subprocess, no preemption (an
    in-process hang cannot be killed, so ``policy.trial_timeout`` is not
    enforced here — that requires the supervised ``jobs > 1`` executor),
    but outcomes carry the same ``attempt``/``elapsed`` provenance as
    supervised ones, and the wrapper's overhead over a bare
    :func:`~repro.experiments.sweep.run_trial` is one clock read per
    trial — benchmarked under 5% by the ``chaos-smoke`` CI job.
    """
    from .sweep import TrialFailure, run_trial

    started = time.monotonic()
    outcome = run_trial(task)
    elapsed = time.monotonic() - started
    if isinstance(outcome, TrialFailure):
        return replace(outcome, attempt=1, elapsed=elapsed)
    outcome.attempt = 1
    return outcome
