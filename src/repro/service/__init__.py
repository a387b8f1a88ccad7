"""The always-on sweep job service.

``repro.service`` turns the batch machinery — journaled sweeps, the
supervised resilient executor, telemetry snapshots — into a long-lived
local service:

* :mod:`~repro.service.daemon` — the asyncio daemon: Unix-socket
  protocol server and serial job worker;
* :mod:`~repro.service.client` — the blocking client the CLI verbs use;
* :mod:`~repro.service.queue` — the durable (CRC-framed, fsync'd,
  ``flock``-guarded) job queue that survives ``kill -9``;
* :mod:`~repro.service.jobs` — job specs, lifecycle states, and the
  sweep-spec → executable-plan resolver;
* :mod:`~repro.service.executor` — runs one job: sweeps through
  :func:`~repro.experiments.journal.checkpointed_sweep` with per-trial
  digests, figures into artifact tables;
* :mod:`~repro.service.events` — the event vocabulary and asyncio fan-out
  ``repro watch`` streams;
* :mod:`~repro.service.state` — the on-disk layout of one state
  directory;
* :mod:`~repro.service.protocol` — the wire format.

The headline property, asserted end to end in ``tests/service/`` and
CI's ``service-smoke`` job: SIGKILL the daemon mid-sweep, restart it,
and the resumed job's per-trial digests are bit-identical to an
undisturbed foreground run of the same plan.
"""

from .client import ServiceClient
from .daemon import ServiceDaemon, serve
from .events import (
    EventBus,
    snapshot_from_json,
    snapshot_to_json,
)
from .executor import ExecutionOutcome, JobCancelled, execute_job, sweep_digest
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SWEEP_FAMILIES,
    JobSpec,
    JobView,
    SweepPlan,
    resolve_sweep_plan,
    validate_spec,
)
from .queue import DurableJobQueue
from .state import ServiceState

__all__ = [
    "CANCELLED",
    "DONE",
    "DurableJobQueue",
    "EventBus",
    "ExecutionOutcome",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "JobCancelled",
    "JobSpec",
    "JobView",
    "QUEUED",
    "RUNNING",
    "SWEEP_FAMILIES",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceState",
    "SweepPlan",
    "execute_job",
    "resolve_sweep_plan",
    "serve",
    "snapshot_from_json",
    "snapshot_to_json",
    "sweep_digest",
    "validate_spec",
]
