"""Run-level settings shared by every experiment.

:class:`RunSettings` covers the simulator knobs that are *not* part of the
protocol variant (those live in :class:`~repro.bgp.config.BgpConfig`): the
traffic model, TTL, and engine safety budgets.  Defaults are the paper's
values.  :func:`with_session_timers` is the one definition of the session
timers a scenario that ``needs_sessions`` runs with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..bgp import BgpConfig
from ..dataplane import DEFAULT_PACKET_RATE, DEFAULT_TTL
from ..errors import ConfigError


@dataclass(frozen=True)
class RunSettings:
    """Everything about a run other than topology, event, and protocol.

    Every field changes what a run simulates, measures or records.  Static
    policy-stability certification is not among them: a run never certifies
    itself, and a caller that wants the verdict asks
    :func:`~repro.analysis.stability.certify_scenario` for it.

    Attributes
    ----------
    packet_rate:
        Packets per second per source AS (paper: 10).
    ttl:
        Initial TTL (paper: 128).
    failure_guard:
        Seconds of quiet between warm-up quiescence and the injected
        failure, so the failure timestamp is unambiguous in traces.
    event_budget:
        Hard cap on post-failure events; a protocol bug that prevents
        convergence fails loudly instead of hanging.
    horizon:
        Hard wall-clock (simulated) limit for the post-failure phase.
    sanitize:
        Run under the full runtime sanitizer suite (causality, FIFO,
        RIB coherence — see :mod:`repro.analysis.sanitizers`).  Off by
        default; flows through sweeps unchanged, so any scenario family
        can be swept sanitized.
    telemetry:
        Install a :class:`~repro.telemetry.probe.TelemetryProbe` for the
        run and attach its :class:`~repro.telemetry.registry.
        MetricsSnapshot` to the returned
        :class:`~repro.experiments.runner.ExperimentRun`.  Purely
        observational: determinism digests are identical on or off.
    timeline:
        Additionally record a simulation-time
        :class:`~repro.telemetry.timeline.Timeline` (instants and spans,
        exportable as JSONL or Chrome trace JSON).  Implies ``telemetry``
        behavior for the probe; off by default because traced runs hold
        every FIB-change/MRAI instant in memory.
    traffic_matrix:
        Evaluate a seeded traffic matrix (one CBR weight per
        (source, prefix), see :class:`~repro.dataplane.traffic.
        TrafficMatrix`) over the measurement window with
        longest-prefix-match forwarding, and attach the resulting
        :class:`~repro.dataplane.traffic_eval.TrafficReport` to the run's
        :class:`~repro.core.loop_metrics.LoopStudyResult`.  This adds the
        traffic-weighted loop metrics to ``summary_row()`` (and hence the
        fingerprint), so it defaults off: single-prefix digests are
        bit-identical unless a scenario opts in.
    traffic_epoch_rows:
        Also collect per-epoch :class:`~repro.dataplane.traffic_eval.
        EpochTraffic` rows in the traffic report.  Off by default: each
        row is one whole-matrix accounting pass — O(rows × flows),
        quadratic in population at routing-table scale — and nothing in
        the harness reads rows.  The report *totals* (and
        every summary fraction, hence the fingerprint) are bit-identical
        either way.  The field stays although nothing under ``src/`` sets
        it: ``benchmarks/e2e/workloads.py`` constructs
        ``RunSettings(traffic_epoch_rows=False)``.  The evaluator's own
        ``epoch_rows`` parameter stays because tests read the rows.
    """

    packet_rate: float = DEFAULT_PACKET_RATE
    ttl: int = DEFAULT_TTL
    failure_guard: float = 1.0
    event_budget: int = 5_000_000
    horizon: float = 50_000.0
    sanitize: bool = False
    telemetry: bool = False
    timeline: bool = False
    traffic_matrix: bool = False
    traffic_epoch_rows: bool = False

    def __post_init__(self) -> None:
        if self.packet_rate <= 0:
            raise ConfigError(f"packet_rate must be positive: {self.packet_rate}")
        if self.ttl < 1:
            raise ConfigError(f"ttl must be >= 1: {self.ttl}")
        if self.failure_guard < 0:
            raise ConfigError(f"failure_guard must be >= 0: {self.failure_guard}")
        if self.event_budget < 1:
            raise ConfigError(f"event_budget must be >= 1: {self.event_budget}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive: {self.horizon}")


def with_session_timers(config: BgpConfig) -> BgpConfig:
    """``config`` with the keepalive/hold-timer session layer switched on.

    Hold 9 s, keepalive 3 s, ConnectRetry 0.5 s backing off to at most 4 s:
    what churn events (session resets, crashes, flaps) run with.  A config
    that already runs sessions is returned unchanged.
    """
    if config.sessions_enabled:
        return config
    return replace(
        config,
        hold_time=9.0,
        keepalive_interval=3.0,
        connect_retry=0.5,
        connect_retry_cap=4.0,
    )
