"""Durable job queue: the service's system of record for job lifecycle.

The queue is a :class:`~repro.experiments.journal.DurableLog` — the trial
journal's CRC framing, replay rule, writer lock and compaction — holding
two record shapes:

.. code-block:: text

    {"crc": N, "record": {"op": "submit", "id": "job-3", "spec": {...}, "ts": T}}
    {"crc": N, "record": {"op": "state", "id": "job-3", "state": "running",
                          "detail": {...}, "ts": T}}

Every append is fsynced before the call returns, so a job acknowledged
to a client survives ``kill -9`` of the daemon.  Replay folds the log
into latest-state :class:`~repro.service.jobs.JobView` objects, skipping
and counting corrupt records (:attr:`DurableJobQueue.recovery`).  New ids
continue past every id an intact record names, ``state`` records
included: a started job whose ``submit`` was lost never lends its id — and
its trial journal — to a new job.  Opening a queue makes it the writer unless
another writer holds the lock; one opened beside a live writer only reads.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..errors import JournalError, ServiceError
from ..experiments.journal import DurableLog
from .jobs import (
    QUEUED,
    JOB_STATES,
    JobSpec,
    JobView,
    job_sort_key,
)

#: Finished jobs the daemon remembers: compaction keeps the queue records
#: of the newest this many, and the event bus their event histories.
KEEP_FINISHED_JOBS = 50


def _decode(payload: Dict) -> Tuple[str, str, float, object]:
    """The queue's codec: ``(op, job id, ts, body)``, body a submit's spec or a
    state change's ``(state, detail)``; JournalError for anything else."""
    try:
        op, job_id, ts = payload["op"], str(payload["id"]), float(payload["ts"])
        if op == "submit":
            return op, job_id, ts, JobSpec.from_json(payload["spec"])
        if op == "state" and payload["state"] in JOB_STATES:
            detail = dict(payload.get("detail") or {})
            return op, job_id, ts, (payload["state"], detail)
    except (KeyError, TypeError, ValueError, ServiceError) as exc:
        raise JournalError(f"malformed job queue record: {exc}") from exc
    raise JournalError(f"not a job queue record: {payload!r}")


def _submit(job_id: str, spec: JobSpec, ts: float) -> Dict:
    return {"op": "submit", "id": job_id, "spec": spec.to_json(), "ts": ts}


def _state(job_id: str, state: str, ts: float, detail: Optional[Dict]) -> Dict:
    return {
        "op": "state",
        "id": job_id,
        "state": state,
        "detail": dict(detail or {}),
        "ts": ts,
    }


class DurableJobQueue:
    """Append-only job log with replay, for one service state directory."""

    def __init__(self, path) -> None:
        self._log = DurableLog(path)
        self.path = self._log.path
        self._jobs: Dict[str, JobView] = {}
        self._next_id = 1
        entries, self.recovery = self._log.replay(_decode)
        for entry in entries:
            self._apply(*entry)
        try:
            self._log.acquire()
        except JournalError:
            pass  # another writer holds the queue: this one only reads

    # -- the fold -------------------------------------------------------

    def _apply(self, op: str, job_id: str, ts: float, body) -> None:
        """Fold one record into the job views (replay and live writes)."""
        prefix, _, number = job_id.partition("-")
        if prefix == "job" and number.isdigit():
            self._next_id = max(self._next_id, int(number) + 1)
        if op == "submit":
            self._jobs[job_id] = JobView(
                job_id=job_id, spec=body, state=QUEUED, submitted=ts, updated=ts
            )
            return
        view = self._jobs.get(job_id)
        if view is None:
            return  # state of a compacted-away job, or of a lost submit
        view.state, detail = body
        view.updated = ts
        if detail:
            view.detail = detail

    def _record(self, payload: Dict) -> None:
        entry = _decode(payload)
        self._log.append(payload)
        self._apply(*entry)

    # -- writing --------------------------------------------------------

    def submit(self, spec: JobSpec, now: Optional[float] = None) -> JobView:
        """Durably record a new job and return its view."""
        ts = time.time() if now is None else now
        job_id = f"job-{self._next_id}"
        self._record(_submit(job_id, spec, ts))
        return self._jobs[job_id]

    def transition(
        self,
        job_id: str,
        state: str,
        detail: Optional[Dict] = None,
    ) -> JobView:
        """Durably record a state change for an existing job."""
        view = self.get(job_id)
        if state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; expected one of "
                f"{', '.join(JOB_STATES)}"
            )
        self._record(_state(job_id, state, time.time(), detail))
        return view

    # -- reading --------------------------------------------------------

    def get(self, job_id: str) -> JobView:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[JobView]:
        """All known jobs, oldest first."""
        return [
            self._jobs[job_id]
            for job_id in sorted(self._jobs, key=job_sort_key)
        ]

    def pending(self) -> List[JobView]:
        """Jobs still owed work (queued, or running when the daemon died)."""
        return [view for view in self.jobs() if not view.terminal]

    # -- compaction -----------------------------------------------------

    def compact(self, keep_terminal: int = KEEP_FINISHED_JOBS) -> int:
        """Atomically rewrite the log as one submit+state pair per job,
        dropping all but the newest ``keep_terminal`` finished jobs.

        Returns the number of jobs dropped.  The rewrite is the journal's
        (:meth:`~repro.experiments.journal.DurableLog.rewrite`), so a
        crash mid-compaction leaves either the old log or the new one,
        never a hybrid.
        """
        terminal = [view for view in self.jobs() if view.terminal]
        drop = (
            set(
                view.job_id
                for view in terminal[: len(terminal) - keep_terminal]
            )
            if keep_terminal >= 0 and len(terminal) > keep_terminal
            else set()
        )
        records: List[Dict] = []
        for view in self.jobs():
            if view.job_id not in drop:
                records.append(_submit(view.job_id, view.spec, view.submitted))
                if view.state != QUEUED or view.detail:
                    records.append(
                        _state(view.job_id, view.state, view.updated, view.detail)
                    )
        self._log.rewrite(records)
        for job_id in drop:
            del self._jobs[job_id]
        return len(drop)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "DurableJobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
