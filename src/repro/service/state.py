"""On-disk layout and single-daemon locking for one service instance.

Everything the sweep service persists lives under one *state directory*:

.. code-block:: text

    <state>/
        daemon.sock          # Unix-domain socket (exists while serving)
        jobs.jsonl           # durable job queue (CRC-framed JSONL)
        jobs.jsonl.lock      # queue writer lock (flock sidecar)
        daemon.lock          # one-daemon-per-state-dir lock
        journals/
            <job-id>.trials.jsonl   # per-job crash-safe trial journal
        artifacts/
            <job-id>/               # figure tables, timeline traces

The trial journals are ordinary :class:`~repro.experiments.journal.
SweepJournal` files — the same system of record a foreground
``repro sweep --journal`` writes — which is exactly why a SIGKILLed
daemon resumes: restarting the job re-runs only the ``(x, seed)`` trials
whose records never landed.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ServiceError
from ..experiments.journal import WriterLock


class ServiceState:
    """Path bookkeeping for one service state directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    @property
    def socket_path(self) -> Path:
        return self.root / "daemon.sock"

    @property
    def queue_path(self) -> Path:
        return self.root / "jobs.jsonl"

    @property
    def journals_dir(self) -> Path:
        return self.root / "journals"

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    def journal_path(self, job_id: str) -> Path:
        return self.journals_dir / f"{job_id}.trials.jsonl"

    def artifact_dir(self, job_id: str) -> Path:
        return self.artifacts_dir / job_id

    def ensure_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)

    def daemon_lock(self) -> WriterLock:
        """The one-daemon-per-state-dir lock (``daemon.lock`` sidecar).

        Acquired (non-blocking) by the daemon on startup; a second
        daemon pointed at the same state directory fails fast instead of
        double-executing the queue.
        """
        return WriterLock(self.root / "daemon")

    def require_socket(self) -> Path:
        """The socket path, raising :class:`~repro.errors.ServiceError`
        with a remedy when no daemon appears to be serving."""
        path = self.socket_path
        if not path.exists():
            raise ServiceError(
                f"no service daemon socket at {path}; start one with "
                f"`repro serve --state {self.root}`"
            )
        return path
