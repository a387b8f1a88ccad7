"""Job execution: specs in, events out, artifacts on disk.

One function per job kind, dispatched by :func:`execute_job`.  The
executor is deliberately synchronous — the daemon runs it on a worker
thread (``asyncio.to_thread``) so the socket loop stays responsive —
and communicates outward only through:

* the ``publish`` callback (events from :mod:`repro.service.events`),
* the job's trial journal / artifact directory on disk,
* its :class:`ExecutionOutcome` return value.

Sweep jobs run through :func:`~repro.experiments.journal.
checkpointed_sweep` against the job's own journal, with per-trial
digests on.  That single decision is what buys the service its headline
property: after ``kill -9``, re-executing the job re-runs only the
missing ``(x, seed)`` trials, and the journal's digests are directly
comparable to an undisturbed foreground run of the same plan.

Cancellation is cooperative: the daemon's ``should_cancel`` callback is
polled at every trial completion (about once a second while a bench
job's harness runs), and a positive answer raises :class:`JobCancelled`.
A trial is journaled before its completion is reported, so every trial
whose ``trial`` event was published is in the job's journal — finished
trials of a half-done point included — and a cancelled job resubmitted
later runs only the rest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import JobCancelled, ReproError, ServiceError
from ..experiments import SweepJournal, checkpointed_sweep
from ..telemetry import MetricsSnapshot, Timeline
from .events import log_event, point_event, snapshot_event, trial_event
from .jobs import JobView, resolve_sweep_plan
from .state import ServiceState


@dataclass
class ExecutionOutcome:
    """What a finished (or cancelled/failed) job leaves behind."""

    state: str  # done / failed / cancelled
    detail: Dict = field(default_factory=dict)


def sweep_digest(records: Dict) -> str:
    """One SHA-256 over a journal's per-trial digests.

    The combined fingerprint of a whole sweep: equal iff the two record
    sets cover the same ``(x, seed)`` keys with identical per-trial
    digests.  Used to compare a service run (possibly SIGKILLed and
    resumed) against an undisturbed foreground run.
    """
    digest = hashlib.sha256()
    for key in sorted(records):
        record = records[key]
        digest.update(f"{record.x!r}:{record.seed}:{record.digest}\n".encode())
    return digest.hexdigest()


def _noop_publish(event: Dict) -> None:
    return None


def _never_cancel() -> bool:
    return False


def execute_sweep(
    view: JobView,
    state: ServiceState,
    publish: Callable[[Dict], None] = _noop_publish,
    should_cancel: Callable[[], bool] = _never_cancel,
) -> ExecutionOutcome:
    """Run (or resume) one sweep job against its durable trial journal."""
    plan = resolve_sweep_plan(view.spec.params)
    job_id = view.job_id
    journal = SweepJournal(state.journal_path(job_id))
    timeline = Timeline()
    started = time.monotonic()
    snapshots: List[MetricsSnapshot] = []
    reports: List = []
    # Progress counts over what this execution runs: a resumed job reads
    # k/missing, not 1..trials once per x.
    journaled, recovery = journal.load()
    total = sum(
        (x, seed) not in journaled for x in plan.xs for seed in plan.seeds
    )
    done = 0

    def on_progress(progress) -> None:
        nonlocal done
        if should_cancel():
            raise JobCancelled(f"job {job_id} cancelled")
        done += 1
        outcome = progress.outcome
        digest = error = ""
        if not progress.ok:
            error = f"{type(outcome.error).__name__}: {outcome.error}"
        elif outcome.fingerprint is not None:
            digest = outcome.fingerprint.digest
        timeline.instant(
            time.monotonic() - started,
            f"trial x={progress.x:g} seed={progress.seed}",
            "service.trial",
            ok=progress.ok,
            done=done,
            total=total,
        )
        publish(
            trial_event(
                job_id, progress.x, progress.seed, progress.ok, digest, error
            )
        )

    def on_point(x: float, point) -> None:
        snapshots.append(point.telemetry())
        try:
            stats = point.metrics()
        except ReproError:
            stats = {}
        timeline.instant(
            time.monotonic() - started,
            f"point x={x:g}",
            "service.point",
            succeeded=point.succeeded,
            failed=point.failed,
        )
        publish(
            point_event(
                job_id,
                x,
                {
                    "succeeded": point.succeeded,
                    "failed": point.failed,
                    "timeouts": point.timeouts,
                    "metrics": stats,
                },
            )
        )

    try:
        summaries = checkpointed_sweep(
            plan.xs,
            plan.make_scenario,
            plan.make_config,
            journal=journal,
            seeds=plan.seeds,
            settings=plan.settings,
            jobs=plan.jobs,
            policy=plan.policy,
            digests=plan.digests,
            on_progress=on_progress,
            on_point=on_point,
            on_report=reports.append,
        )
    finally:
        # Compact whatever finished — the resume point after a cancel or
        # a trial-level crash (a SIGKILL leaves the fsync'd appends).
        journal.close()

    records = journal.records
    combined = sweep_digest(records) if plan.digests else ""

    aggregate = MetricsSnapshot.aggregate(snapshots)
    supervision = None
    for report in reports:
        supervision = report if supervision is None else supervision.merged(report)
    if supervision is not None and supervision.metrics is not None:
        aggregate = MetricsSnapshot.aggregate(
            [aggregate, supervision.metrics]
        )
    publish(snapshot_event(job_id, aggregate))

    state.artifact_dir(job_id).mkdir(parents=True, exist_ok=True)
    timeline.span(
        0.0, time.monotonic() - started, f"job {job_id}", "service.job"
    )
    trace_path = state.artifact_dir(job_id) / "timeline.json"
    timeline.write_chrome_trace(str(trace_path), process_name=f"repro-{job_id}")
    publish(log_event(job_id, f"timeline artifact: {trace_path}"))

    detail: Dict = {
        "points": len(summaries),
        "trials": len(records),
        "ok": sum(1 for record in records.values() if record.ok),
        "failed": sum(1 for record in records.values() if not record.ok),
        "digest": combined,
        "journal": str(journal.path),
        "timeline": str(trace_path),
    }
    if not recovery.clean:
        # Resuming needed repairs: the job's record says which.
        detail["journal_recovery"] = asdict(recovery)
    if supervision is not None:
        detail["supervision"] = {
            "trials": supervision.trials,
            "completed": supervision.completed,
            "retries": supervision.retries,
            "worker_deaths": supervision.worker_deaths,
            "timeouts": supervision.timeouts,
        }
    return ExecutionOutcome(state="done", detail=detail)


def execute_figure(
    view: JobView,
    state: ServiceState,
    publish: Callable[[Dict], None] = _noop_publish,
    should_cancel: Callable[[], bool] = _never_cancel,
) -> ExecutionOutcome:
    """Render one committed result into the job's artifact directory."""
    import inspect

    from ..experiments.figures import CLAIMS

    figure_id = view.spec.params.get("id")
    if figure_id not in CLAIMS:
        raise ServiceError(f"unknown figure {figure_id!r}")
    if should_cancel():
        raise JobCancelled(f"job {view.job_id} cancelled")
    claim = CLAIMS[figure_id]
    quick = bool(view.spec.params.get("quick", True))
    kwargs = dict(claim.quick or {}) if quick else {}
    if "jobs" in inspect.signature(claim.driver).parameters:
        kwargs["jobs"] = view.spec.params.get("jobs", 1)
    figure = claim.driver(**kwargs)
    rendered = figure.render()
    directory = state.artifact_dir(view.job_id)
    directory.mkdir(parents=True, exist_ok=True)
    table_path = directory / f"{figure_id}.txt"
    table_path.write_text(rendered + "\n", encoding="utf-8")
    publish(log_event(view.job_id, f"figure artifact: {table_path}"))
    failures = [str(check) for check in figure.checks if not check.holds]
    return ExecutionOutcome(
        state="done",
        detail={
            "figure": figure_id,
            "artifact": str(table_path),
            "shape_failures": failures,
        },
    )


def execute_bench(
    view: JobView,
    state: ServiceState,
    publish: Callable[[Dict], None] = _noop_publish,
    should_cancel: Callable[[], bool] = _never_cancel,
) -> ExecutionOutcome:
    """Run one ``benchmarks/e2e`` cycle; the trajectory record is the detail."""
    from .bench import run_bench_cycle

    params = view.spec.params
    record = run_bench_cycle(
        repeat=params.get("repeat", 1),
        bench_dir=params.get("bench_dir"),
        results_dir=params.get("results_dir"),
        publish=lambda message: publish(log_event(view.job_id, message)),
        should_cancel=should_cancel,
    )
    return ExecutionOutcome(
        state="done" if record["ok"] else "failed", detail=record
    )


_EXECUTORS = {
    "sweep": execute_sweep,
    "figure": execute_figure,
    "bench": execute_bench,
}


def execute_job(
    view: JobView,
    state: ServiceState,
    publish: Callable[[Dict], None] = _noop_publish,
    should_cancel: Callable[[], bool] = _never_cancel,
) -> ExecutionOutcome:
    """Dispatch one job to its kind's executor.

    Returns the outcome instead of raising: failures come back as
    ``state="failed"`` with the error message in ``detail``, and a
    :class:`JobCancelled` comes back as ``state="cancelled"`` — the
    daemon turns these into queue transitions and ``end`` events.
    """
    try:
        runner = _EXECUTORS[view.spec.kind]
    except KeyError:
        return ExecutionOutcome(
            state="failed",
            detail={"error": f"unknown job kind {view.spec.kind!r}"},
        )
    try:
        return runner(view, state, publish, should_cancel)
    except JobCancelled:
        return ExecutionOutcome(state="cancelled", detail={})
    except ReproError as exc:
        return ExecutionOutcome(
            state="failed",
            detail={"error": str(exc), "kind": type(exc).__name__},
        )
