"""The trial executor: a supervised worker pool with timeouts and retries.

Every trial a :class:`~repro.experiments.sweep.TrialRunner` with
``jobs > 1`` runs goes through here — this module is the only code that
starts a trial worker process.  An anonymous pool loses the whole
sweep when one worker is OOM-killed and lets a hung trial hold its worker
forever; fleet-scale runs (the always-on sweep service, Internet-scale
trials) make those events routine, so the pool is *supervised*:

* **at most ``jobs`` worker processes, reused**: each takes one
  :class:`~repro.experiments.sweep.TrialTask` after another off its own
  pipe, so the supervisor always knows exactly which PID runs which
  trial, and a trial of a few milliseconds does not pay for a fork;
* **worker death** (killed PID, crash, nonzero exit) loses only the one
  trial that worker was running — the supervisor starts a replacement
  and re-submits the identical task, never the finished ones;
* **per-trial wall-clock timeouts**: a harness-side watchdog kills the
  worker of any trial that exceeds ``policy.trial_timeout`` — a deadline
  per assignment, not per process — and converts the hang into a
  :class:`~repro.errors.TrialTimeoutError`;
* **retry with capped exponential backoff** and *deterministic seeded
  jitter* for the transient failure kinds (death, timeout).  A retry
  re-runs the identical ``TrialTask``, so a retried trial's digest is
  bit-identical to an undisturbed run — resilience never perturbs
  ``digests=True`` equivalence;
* **no orphans**: a worker whose supervisor was SIGKILLed exits when its
  current trial ends (:func:`_worker_main`).

A :class:`ResiliencePolicy` does not select this executor, it sets its
retries and timeouts; a sweep without one runs with no retries and
aborts on the first dead worker.

Retry/timeout/restart counts are tallied per batch and returned as a
:class:`SupervisionReport` by :func:`run_tasks_supervised`, through
:func:`~repro.experiments.sweep.dispatch`, to the one caller that asked
for the batch, so a daemon running many concurrent sweeps never sees
another job's counters.  The supervisor keeps no outcome: it counts each
one and hands it on.

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
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..errors import (
    AnalysisError,
    ConfigError,
    TrialTimeoutError,
    WorkerCrashError,
)
from ..telemetry.registry import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from .sweep import TrialTask

#: Supervisor poll tick (seconds): the upper bound on how stale the
#: watchdog's view of worker liveness/deadlines can be.
_TICK = 0.05

#: Re-submission of attempt ``n`` (n >= 2) waits
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-2))`` seconds, stretched by up
#: to ``JITTER`` of itself.  The wait is a *cooldown*: other trials keep
#: the workers busy while a flaky one sits out its backoff.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: The stretch is drawn from a ``random.Random`` seeded by ``(task.index,
#: task.seed, attempt)``: deterministic for a given sweep shape, so reruns
#: schedule identically.
JITTER = 0.25


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a sweep survives worker death, hangs, and transient failures.

    ``max_retries``
        Extra attempts granted to a trial after a *transient* failure
        (worker death or watchdog timeout).  ``0`` disables retry; the
        first transient failure is then terminal for that trial.
        Deterministic simulation failures (budget exhaustion,
        non-convergence) are never retried — they would fail identically.
        A retry first waits out :meth:`backoff_delay`.
    ``trial_timeout``
        Wall-clock seconds one attempt may run before the watchdog kills
        its worker (``None`` disables the watchdog).  Only enforceable
        with ``jobs > 1``: an in-process trial cannot be preempted.

    A trial whose retries are exhausted is recorded as a
    :class:`~repro.experiments.sweep.TrialTimeout` /
    :class:`~repro.experiments.sweep.TrialFailure` and the sweep
    continues; with no policy at all it aborts the sweep.
    """

    max_retries: int = 2
    trial_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ConfigError(
                f"trial_timeout must be positive seconds or None, got "
                f"{self.trial_timeout}"
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
        base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 2)))
        stream = random.Random(
            ((index + 1) * 2654435761 + seed * 40503 + attempt * 97)
            & 0xFFFFFFFF
        )
        return base * (1.0 + JITTER * stream.random())


def policy_of(
    retries: Optional[int], trial_timeout: Optional[float]
) -> Optional[ResiliencePolicy]:
    """The policy that ``retries`` and ``trial_timeout`` ask for — the
    flags of ``repro figure``/``determinism`` and the keys of a sweep spec —
    or ``None`` when neither is set (no retries, no supervision report)."""
    if retries is None and trial_timeout is None:
        return None
    if retries is None:
        return ResiliencePolicy(trial_timeout=trial_timeout)
    return ResiliencePolicy(max_retries=retries, trial_timeout=trial_timeout)


@dataclass(frozen=True)
class SupervisionReport:
    """What the supervised executor observed during one batch.

    ``metrics`` is a frozen :class:`~repro.telemetry.registry.
    MetricsSnapshot` carrying the nonzero counts under the
    ``resilience.*`` names, so sweep-level telemetry aggregation can fold
    supervision activity in alongside simulation metrics; ``None`` for an
    in-process batch.
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


def _mp_context():
    """Prefer ``fork`` (cheap workers that inherit the imports); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(conn, inherited) -> None:
    """Worker-process body: run tasks off the pipe until it closes.

    Everything — including non-isolated errors like ``SanitizerError`` —
    goes back through the pipe so the supervisor can distinguish "the
    trial raised" from "the worker died".  An outcome that cannot be
    pickled is downgraded to a transportable error.

    The supervisor's end closing is the one stop signal, whether the
    sweep is done or the supervisor was SIGKILLed: the worker exits when
    it next touches the pipe (EOF on ``recv``, ``EPIPE`` on ``send``).
    Under ``fork`` that never fires unless ``inherited`` — the
    supervisor's end of this pipe and of every pipe opened before it,
    which a forked worker holds too — is closed first.  (Ends of
    *another* sweep running concurrently in the same process are not
    covered; the service runs one job at a time.)
    """
    from .sweep import run_trial

    for end in inherited:
        end.close()
    try:
        while True:
            task = conn.recv()
            try:
                payload = ("ok", run_trial(task))
            except BaseException as exc:  # noqa: BLE001 - ferried to supervisor
                payload = ("raise", exc)
            try:
                conn.send(payload)
            except OSError:  # the pipe broke, not the pickling
                raise
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
    except (EOFError, OSError):
        pass  # the supervisor is done, or gone: no more trials to run
    finally:
        conn.close()


@dataclass
class _Worker:
    """One live worker: its process and pipe and, while it runs a trial,
    that assignment and its deadline (``task is None`` means idle)."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    task: Optional["TrialTask"] = None
    attempt: int = 0
    started: float = 0.0
    deadline: Optional[float] = None


@dataclass
class _Counters:
    """Mutable supervision tallies of one batch."""

    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    completed: int = 0
    exhausted: int = 0

    def bump(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)

    def report(self, trials: int) -> SupervisionReport:
        counts = asdict(self)
        return SupervisionReport(
            trials=trials,
            metrics=MetricsSnapshot(
                counters={
                    f"resilience.{name}": value
                    for name, value in sorted(counts.items())
                    if value
                }
            ),
            **counts,
        )


def _drain(conn):
    """One non-blocking recv: the worker's payload, or ``"died"`` on EOF."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return "died"


def _reap(worker: _Worker) -> None:
    """Join a stopped/killed worker (hard-kill stragglers) and close up."""
    worker.process.join(timeout=5.0)
    if worker.process.is_alive():  # pragma: no cover - defensive
        worker.process.kill()
        worker.process.join(timeout=5.0)
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _kill_workers(workers: List[_Worker]) -> None:
    """Hard-stop every live worker (abort path); never raises."""
    for worker in workers:
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except Exception:
            pass
    for worker in workers:
        try:
            worker.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            worker.conn.close()
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
    policy: Optional[ResiliencePolicy],
    on_outcome: Callable[["TrialTask", object], None],
) -> SupervisionReport:
    """Run every task to a final outcome on at most ``jobs`` workers.

    ``on_outcome(task, outcome)`` hears of each final outcome as it lands
    (completion order; tasks are handed out in task order, and each
    task's ``index`` must be its position).  Outcomes are what
    :func:`~repro.experiments.sweep.run_trial` returned or, for trials
    whose transient failures exhausted the retry budget, a
    :class:`~repro.experiments.sweep.TrialFailure` /
    :class:`~repro.experiments.sweep.TrialTimeout`.  With ``policy=None``
    there are no retries and no watchdog, and a dead worker's error
    aborts the run instead.

    A worker that *reports* an exception (rather than dying) aborts the
    whole run — that path carries non-isolated errors such as
    :class:`~repro.errors.SanitizerError`.
    """
    from .sweep import TrialFailure

    limits = policy or ResiliencePolicy(max_retries=0)
    context = _mp_context()
    counters = _Counters()
    #: (task, attempt) ready to start now, in deterministic task order.
    pending: List[Tuple["TrialTask", int]] = [(task, 1) for task in tasks]
    #: (ready_at, task, attempt) sitting out a backoff cooldown.
    cooling: List[Tuple[float, "TrialTask", int]] = []
    workers: List[_Worker] = []

    def spawn() -> _Worker:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, [w.conn for w in workers] + [parent_conn]),
            name="repro-trial-worker",
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        workers.append(worker)
        return worker

    def assign(worker: _Worker, task: "TrialTask", attempt: int) -> None:
        worker.task, worker.attempt = task, attempt
        worker.started = time.monotonic()
        worker.deadline = (
            worker.started + limits.trial_timeout
            if limits.trial_timeout is not None
            else None
        )
        try:
            worker.conn.send(task)
        except OSError:
            pass  # died while idle: the liveness check reports the death

    def finish(task: "TrialTask", outcome: object) -> None:
        counters.bump("completed")
        on_outcome(task, outcome)

    def transient_failure(worker: _Worker, error) -> None:
        """Worker death or timeout: retry with backoff, or exhaust."""
        task, attempt = worker.task, worker.attempt
        elapsed = time.monotonic() - worker.started
        if attempt < limits.max_attempts:
            counters.bump("retries")
            counters.bump("worker_restarts")
            delay = limits.backoff_delay(task.index, task.seed, attempt + 1)
            cooling.append((time.monotonic() + delay, task, attempt + 1))
            return
        counters.bump("exhausted")
        if policy is None:
            raise error
        finish(task, _exhausted_failure(task, error, attempt, elapsed))

    try:
        while counters.completed < len(tasks):
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
            idle = [worker for worker in workers if worker.task is None]
            while pending and (idle or len(workers) < jobs):
                assign(idle.pop(0) if idle else spawn(), *pending.pop(0))

            busy = [worker for worker in workers if worker.task is not None]
            if not busy:
                # Everything is cooling down; sleep until the first wake.
                wake = min(at for at, _t, _a in cooling)
                time.sleep(max(0.0, min(wake - time.monotonic(), _TICK)))
                continue

            timeout = _TICK
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(min(deadlines) - now, _TICK))
            readable = multiprocessing.connection.wait(
                [worker.conn for worker in busy], timeout=timeout
            )

            now = time.monotonic()
            for worker in busy:
                # One of: ("ok"|"raise", payload), "died", or None (running).
                result = None
                if worker.conn in readable or worker.conn.poll():
                    result = _drain(worker.conn)
                if result is None and not worker.process.is_alive():
                    # Re-poll once: the result may have landed between the
                    # wait() call and the liveness check.
                    result = _drain(worker.conn) if worker.conn.poll() else "died"
                if result is None:
                    if worker.deadline is not None and now >= worker.deadline:
                        worker.process.kill()
                        _reap(worker)
                        workers.remove(worker)
                        counters.bump("timeouts")
                        transient_failure(
                            worker,
                            TrialTimeoutError(
                                f"trial (x={worker.task.x}, "
                                f"seed={worker.task.seed}) exceeded its "
                                f"{limits.trial_timeout}s wall-clock budget "
                                f"on attempt {worker.attempt} and was killed",
                                timeout=limits.trial_timeout or 0.0,
                                attempts=worker.attempt,
                            ),
                        )
                    continue
                if result == "died":
                    _reap(worker)
                    workers.remove(worker)
                    exitcode = worker.process.exitcode or 0
                    counters.bump("worker_deaths")
                    transient_failure(
                        worker,
                        WorkerCrashError(
                            f"worker running trial (x={worker.task.x}, "
                            f"seed={worker.task.seed}) died with exit code "
                            f"{exitcode} on attempt {worker.attempt}",
                            exitcode=exitcode,
                            attempts=worker.attempt,
                        ),
                    )
                    continue
                kind, payload = result
                if kind == "raise":
                    raise payload
                if isinstance(payload, TrialFailure):
                    payload = replace(
                        payload,
                        attempt=worker.attempt,
                        elapsed=now - worker.started,
                    )
                elif hasattr(payload, "attempt"):
                    payload.attempt = worker.attempt
                task, worker.task = worker.task, None
                if pending:
                    # Hand over the next task first: the worker runs it while
                    # this outcome is reported (journaled, fsync'd, published).
                    assign(worker, *pending.pop(0))
                finish(task, payload)
                del result, payload  # the outcome is the caller's now
    except BaseException:
        _kill_workers(workers)
        raise

    for worker in workers:
        worker.conn.close()  # EOF tells an idle worker to exit
    for worker in workers:
        _reap(worker)
    return counters.report(len(tasks))


def run_trial_resilient(task: "TrialTask"):
    """Execute one trial in-process with attempt/elapsed provenance.

    The ``jobs=1`` path: no subprocess, so no preemption (an in-process
    hang cannot be killed; ``policy.trial_timeout`` takes ``jobs > 1``),
    but outcomes carry the same provenance as supervised ones.  It lives
    here, not in :mod:`~repro.experiments.sweep`, because the clock read
    needs this file's REP101 exemption.
    """
    from .sweep import TrialFailure, run_trial

    started = time.monotonic()
    outcome = run_trial(task)
    elapsed = time.monotonic() - started
    if isinstance(outcome, TrialFailure):
        return replace(outcome, attempt=1, elapsed=elapsed)
    outcome.attempt = 1
    return outcome
