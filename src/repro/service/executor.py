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
comparable to an undisturbed foreground run of the same plan.  Each
finished trial reaches the job through one ``on_outcome(task, outcome)``
stream, which publishes its ``trial`` event and, once the last missing
trial of an x lands, that x's ``point`` event, summarized from every
journaled trial of the x.

Cancellation is cooperative: a sweep polls the daemon's ``should_cancel``
callback at every trial completion, a figure job once, before its driver
runs; a positive answer raises :class:`JobCancelled`.
A trial is journaled before its completion is reported, so every trial
whose ``trial`` event was published is in the job's journal — finished
trials of a half-done point included — and a cancelled job resubmitted
later runs only the rest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List

from ..errors import JobCancelled, ReproError, ServiceError
from ..experiments import SweepJournal, TrialFailure, checkpointed_sweep
from ..experiments.sweep import summarize_point
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
    publish: Callable[[Dict], None],
    should_cancel: Callable[[], bool],
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
    # k/missing, not 1..trials once per x.  An x's point is published when
    # its last missing trial lands.
    journaled, recovery = journal.load()
    missing = {
        x: sum((x, seed) not in journaled for seed in plan.seeds)
        for x in plan.xs
    }
    total = sum(missing.values())
    done = 0

    def publish_point(x: float) -> None:
        # Every journaled trial of x, the ones an earlier execution ran too.
        records = journal.records
        point = summarize_point(x, [records[(x, seed)] for seed in plan.seeds])
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
                    "metrics": point.metrics,
                },
            )
        )

    def on_outcome(task, outcome) -> None:
        nonlocal done
        if should_cancel():
            raise JobCancelled(f"job {job_id} cancelled")
        done += 1
        ok = not isinstance(outcome, TrialFailure)
        digest = error = ""
        if not ok:
            error = f"{type(outcome.error).__name__}: {outcome.error}"
        else:
            if outcome.fingerprint is not None:
                digest = outcome.fingerprint.digest
            if outcome.metrics is not None:
                snapshots.append(outcome.metrics)
        timeline.instant(
            time.monotonic() - started,
            f"trial x={task.x:g} seed={task.seed}",
            "service.trial",
            ok=ok,
            done=done,
            total=total,
        )
        publish(trial_event(job_id, task.x, task.seed, ok, digest, error))
        missing[task.x] -= 1
        if not missing[task.x]:
            publish_point(task.x)

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
            on_outcome=on_outcome,
            on_report=reports.append,
        )
    finally:
        # Compact whatever finished — the resume point after a cancel or
        # a trial-level crash (a SIGKILL leaves the fsync'd appends).
        journal.close()

    records = journal.records
    combined = sweep_digest(records) if plan.digests else ""

    supervision = reports[0] if reports else None
    if supervision is not None and supervision.metrics is not None:
        snapshots.append(supervision.metrics)
    publish(snapshot_event(job_id, MetricsSnapshot.aggregate(snapshots)))

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
    publish: Callable[[Dict], None],
    should_cancel: Callable[[], bool],
) -> ExecutionOutcome:
    """Render one committed result into the job's artifact directory."""
    from ..experiments import trial_runner
    from ..experiments.figures import CLAIMS

    params = view.spec.params
    figure_id = params.get("id")
    if figure_id not in CLAIMS:
        raise ServiceError(f"unknown figure {figure_id!r}")
    if should_cancel():
        raise JobCancelled(f"job {view.job_id} cancelled")
    claim = CLAIMS[figure_id]
    quick = params.get("quick", True)
    kwargs = dict(claim.quick or {}) if quick else {}
    with trial_runner(params.get("jobs", 1)):
        figure = claim.driver(**kwargs)
    rendered = figure.render()
    directory = state.artifact_dir(view.job_id)
    directory.mkdir(parents=True, exist_ok=True)
    table_path = directory / f"{figure_id}.txt"
    table_path.write_text(rendered + "\n", encoding="utf-8")
    publish(log_event(view.job_id, f"figure artifact: {table_path}"))
    # What `repro figure` flags for the same row.
    return ExecutionOutcome(
        state="done",
        detail={
            "figure": figure_id,
            "artifact": str(table_path),
            "shape_failures": claim.judge(figure.checks, quick),
        },
    )


_EXECUTORS = {
    "sweep": execute_sweep,
    "figure": execute_figure,
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
