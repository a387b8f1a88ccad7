"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError``, ``ValueError`` from stdlib misuse)
propagate naturally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly or reached a bad state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped scheduler."""


class BudgetExceededError(SimulationError):
    """A run exhausted its event budget or horizon without converging.

    Carries an optional ``snapshot`` (a
    :class:`~repro.experiments.diagnostics.DiagnosticSnapshot`) describing
    the simulation state at the moment of exhaustion — queue depths, pending
    timers per node, the tail of the message trace — so non-convergence is
    debuggable instead of opaque.

    Instances cross process boundaries intact: parallel sweeps run trials
    in worker processes and ship failures back through ``pickle``, and the
    default exception reduction (``cls(*args)``) would silently drop the
    snapshot.  ``__reduce__`` keeps it attached.
    """

    def __init__(self, message: str, snapshot: object = None) -> None:
        super().__init__(message)
        self.snapshot = snapshot

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.snapshot))


class TrialTimeoutError(SimulationError):
    """A trial exceeded its wall-clock budget and was killed by the watchdog.

    Raised (or recorded, per the
    :class:`~repro.experiments.resilience.ResiliencePolicy`) by the
    supervised sweep executor when a worker held one trial longer than
    ``policy.trial_timeout`` seconds.  A :class:`SimulationError` subclass
    so sweep fault isolation treats a hung trial like any other per-trial
    failure instead of aborting the whole sweep.

    ``__reduce__`` keeps the structured fields across process boundaries
    (the default exception reduction would drop the keywords).
    """

    def __init__(self, message: str, timeout: float = 0.0, attempts: int = 1) -> None:
        super().__init__(message)
        self.timeout = timeout
        self.attempts = attempts

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.timeout, self.attempts))


class WorkerCrashError(SimulationError):
    """A sweep worker process died (OOM kill, SIGKILL, segfault) mid-trial.

    Recorded by the supervised executor after retries are exhausted; the
    ``exitcode`` is the worker's final exit status (negative = killed by
    that signal number, the ``multiprocessing`` convention).
    """

    def __init__(self, message: str, exitcode: int = 0, attempts: int = 1) -> None:
        super().__init__(message)
        self.exitcode = exitcode
        self.attempts = attempts

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.exitcode, self.attempts))


class JournalError(ReproError):
    """A sweep journal was misused (bad path, closed handle, bad record)."""


class ServiceError(ReproError):
    """The sweep job service refused a request (bad job spec, unknown job,
    daemon unreachable, protocol violation)."""


class JobCancelled(ReproError):
    """Raised inside a running service job when the daemon asks it to stop
    (``repro cancel``, or a shutdown that re-queues the job)."""


class SanitizerError(ReproError):
    """A runtime sanitizer observed an invariant violation.

    Deliberately *not* a :class:`SimulationError`: a tripped sanitizer
    means the simulator itself is wrong, so sweep fault isolation (which
    absorbs ``SimulationError`` per trial) must let it propagate.
    """


class TopologyError(ReproError):
    """A topology is malformed or a generator received invalid parameters."""


class NetworkError(ReproError):
    """The network substrate was misconfigured (unknown node, dead link...)."""


class ProtocolError(ReproError):
    """A routing protocol implementation reached an inconsistent state."""


class ConfigError(ReproError):
    """An experiment or protocol configuration is invalid."""


class AnalysisError(ReproError):
    """Loop/convergence analysis was asked something it cannot answer."""


class TelemetryError(ReproError):
    """The telemetry subsystem was misused (bad metric name, bad export)."""
