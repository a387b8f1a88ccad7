"""The single-run experiment driver.

:func:`run_experiment` executes the paper's measurement protocol end to end:

1. Build the network of :class:`~repro.bgp.speaker.BgpSpeaker` nodes over the
   scenario's topology; the destination AS originates the prefix.
2. Run to quiescence — the warm-up convergence that establishes steady-state
   routing (its messages are excluded from all metrics).
3. Inject the scenario's schedule after a short guard interval: the
   failure instant is warm-up quiescence plus the guard, and every entry
   (a Tdown origin withdrawal, a Tlong link failure, a churn event, a Tagg
   cycle...) is shifted from its offset to that instant plus the offset and
   scheduled.  An empty schedule injects nothing.
4. Run to quiescence again, with an event budget as a non-convergence alarm.
   With the session layer enabled the run gets a *settle* window sized to
   the hold time, so detections carried by housekeeping timers still fire;
   quiescence is judged on substantive events only (keepalive heartbeats
   never block it).
5. Measure: convergence time from the message trace, packet fates from the
   FIB change log via the epoch evaluator, and per-loop lifetimes from the
   loop timeline.

A run that exhausts its budget or horizon raises
:class:`~repro.errors.BudgetExceededError` carrying a
:class:`~repro.experiments.diagnostics.DiagnosticSnapshot` of the dying
simulation, so sweeps can record the post-mortem and continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from ..analysis.determinism import RunFingerprint
    from ..telemetry import MetricsSnapshot, Timeline

from ..bgp import (
    BgpConfig,
    BgpSpeaker,
    RoutingPolicy,
    interning_scope,
    route_intern_table_size,
)
from ..bgp.path import intern_table_size
from ..core import LoopStudyResult, loop_timeline, measure_convergence
from ..core.exploration import RouteChangeLog
from ..dataplane import (
    EpochEvaluator,
    FibChangeLog,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    sources_for,
)
from ..engine import RandomStreams, Scheduler
from ..errors import BudgetExceededError, SchedulingError
from ..net import Network
from .config import RunSettings
from .diagnostics import capture_snapshot
from .scenarios import Scenario

_FIRST = itemgetter(0)

PolicyFactory = Callable[[int], RoutingPolicy]
"""``factory(node_id) -> RoutingPolicy`` for per-node policies (e.g. a
Gao-Rexford assignment); ``None`` gives every node the default
shortest-path policy."""


@dataclass
class ExperimentRun:
    """A completed run: the metrics plus enough context to interpret them.

    Everything here except ``network`` is plain data and picklable, so a
    run produced inside a parallel-sweep worker travels home intact.  The
    live ``network`` (scheduler callbacks, channels) is only retained on
    request and never crosses a process boundary; sweeps that need the
    trace digest set ``fingerprint`` before dropping it.
    """

    scenario: Scenario
    bgp_config: BgpConfig
    settings: RunSettings
    seed: int
    result: LoopStudyResult
    warmup_time: float
    failure_time: float
    end_time: float
    fib_log: FibChangeLog
    route_log: RouteChangeLog = field(default_factory=RouteChangeLog)
    network: Optional[Network] = None
    fingerprint: Optional["RunFingerprint"] = None
    """SHA-256 reduction of the run (trace/FIB/summary), populated by
    ``sweep(..., digests=True)`` as the parallel-equivalence oracle."""
    metrics: Optional["MetricsSnapshot"] = None
    """Frozen telemetry counters/gauges/histograms when
    ``settings.telemetry`` (or ``settings.timeline``) was set.  Plain
    picklable data; deliberately *not* part of the fingerprint, so
    digests stay bit-identical with telemetry on or off."""
    timeline: Optional["Timeline"] = None
    """Simulation-time instants and spans when ``settings.timeline`` was
    set; export with ``timeline.write_chrome_trace(path)`` or
    ``timeline.write_jsonl(path)``."""
    attempt: int = 1
    """Which attempt produced this run (resilient sweeps only; > 1 means
    earlier attempts were lost to worker death or watchdog timeout and
    the identical task was re-run).  Provenance, not simulation state —
    deliberately outside the fingerprint."""

    @property
    def converged(self) -> bool:
        """True when the post-failure phase reached quiescence."""
        return self.end_time < self.failure_time + self.settings.horizon


def build_network(
    scenario: Scenario,
    bgp_config: BgpConfig,
    streams: RandomStreams,
    scheduler: Scheduler,
    fib_log: FibChangeLog,
    policy_factory: Optional[PolicyFactory] = None,
    route_log: Optional[RouteChangeLog] = None,
) -> Network:
    """Instantiate speakers over the scenario topology, origin configured."""

    def factory(node_id: int, sched: Scheduler) -> BgpSpeaker:
        return BgpSpeaker(
            node_id,
            sched,
            config=bgp_config,
            streams=streams,
            policy=policy_factory(node_id) if policy_factory else None,
            fib_listener=fib_log.record,
            route_listener=route_log.record if route_log is not None else None,
        )

    network = Network(scenario.topology, scheduler, factory)
    # Each run of consecutive originations at one node is one decision pass,
    # outcome-identical to originating them one at a time in list order.
    # The pass also syncs at once, before ``network.start()`` and outside
    # its flush windows, and start() decides and syncs the origins again
    # (see BgpSpeaker.start); the pinned digests include both rounds.
    for node_id, pairs in groupby(scenario.originations, key=_FIRST):
        origin = network.node(node_id)
        assert isinstance(origin, BgpSpeaker)
        origin.update_origins([prefix for _node, prefix in pairs], [])
    return network


@interning_scope()
def run_experiment(
    scenario: Scenario,
    bgp_config: BgpConfig,
    settings: RunSettings = RunSettings(),
    seed: int = 0,
    keep_network: bool = False,
    on_network_ready: Optional[Callable[[Network, float], None]] = None,
    policy_factory: Optional[PolicyFactory] = None,
) -> ExperimentRun:
    """Run one complete scenario and return its measurements.

    Parameters
    ----------
    scenario, bgp_config, settings:
        What to simulate.
    seed:
        Root seed for all randomness (jitter, processing delays).
    keep_network:
        Retain the live network on the returned record (tests/debugging).
    on_network_ready:
        Optional hook invoked after warm-up with ``(network, failure_time)``
        — used by validation code to attach an event-driven packet forwarder
        before the failure phase begins.
    policy_factory:
        Optional per-node routing-policy assignment (e.g. Gao-Rexford
        relationships); default is the paper's shortest-path policy.

    The whole run, measurement included, executes inside its own
    :func:`~repro.bgp.route.interning_scope`: the paths and routes it
    interns leave the intern tables when it returns, and live on only as
    long as the returned record refers to them.
    """
    paths_at_start, routes_at_start = intern_table_size(), route_intern_table_size()
    streams = RandomStreams(seed)
    scheduler = Scheduler()
    # The sanitizers observe before the probe, at every hook they share.
    observers = []
    if settings.sanitize:
        from ..analysis.sanitizers import build_suite

        observers.extend(build_suite())
    probe = None
    if settings.telemetry or settings.timeline:
        from ..telemetry import TelemetryProbe, Timeline

        probe = TelemetryProbe(
            timeline=Timeline() if settings.timeline else None
        )
        observers.append(probe)
    scheduler.observe(*observers)
    fib_log = FibChangeLog()
    route_log = RouteChangeLog()
    network = build_network(
        scenario, bgp_config, streams, scheduler, fib_log, policy_factory, route_log
    )
    network.start()

    # Sessions quiesce up to housekeeping heartbeats; the settle window keeps
    # those heartbeats (and the detections that ride on them — hold expiries)
    # firing for a bounded quiet period after routing activity stops.
    settle = None
    if bgp_config.sessions_enabled:
        settle = bgp_config.hold_time + bgp_config.effective_keepalive

    def run_phase(until: Optional[float], what: str) -> None:
        try:
            scheduler.run(
                until=until, max_events=settings.event_budget, settle=settle
            )
        except SchedulingError as exc:
            snapshot = capture_snapshot(scheduler, network)
            raise BudgetExceededError(
                f"scenario {scenario.name!r} (seed {seed}) exhausted its "
                f"{settings.event_budget}-event budget during {what}\n"
                f"{snapshot.render()}",
                snapshot=snapshot,
            ) from exc

    # Phase 1: warm-up convergence (not part of any metric).
    run_phase(None, "warm-up")
    warmup_time = scheduler.now
    failure_time = warmup_time + settings.failure_guard

    # Phase 2: inject the schedule, each offset counted from the failure.
    for entry in scenario.events:
        replace(entry, at=entry.at + failure_time).inject(network)

    if on_network_ready is not None:
        on_network_ready(network, failure_time)

    # Phase 3: post-failure convergence.
    run_phase(failure_time + settings.horizon, "post-failure convergence")
    if scheduler.next_substantive_time() is not None:
        snapshot = capture_snapshot(scheduler, network)
        raise BudgetExceededError(
            f"scenario {scenario.name!r} (seed {seed}) did not converge "
            f"within the {settings.horizon}s horizon\n{snapshot.render()}",
            snapshot=snapshot,
        )
    end_time = max(failure_time, scheduler.last_substantive_event_time or failure_time)

    # Phase 4: measurement.
    convergence = measure_convergence(network.trace, failure_time)
    window = (failure_time, convergence.convergence_end)
    sources = sources_for(
        scenario.topology.nodes,
        scenario.destination,
        rate=settings.packet_rate,
    )
    evaluator = EpochEvaluator(
        log=fib_log,
        prefix=scenario.prefix,
        sources=sources,
        ttl=settings.ttl,
    )
    dataplane = evaluator.evaluate(*window)
    intervals = loop_timeline(fib_log, scenario.prefix, window[0], window[1])
    # Traffic-matrix measurement (opt-in): a seeded CBR demand per
    # (source, prefix) over the steady-state originated specifics,
    # classified by LPM forwarding across *all* prefixes.  The matrix seed
    # is the run seed, so jobs=1 and jobs=N workers rebuild it identically.
    traffic = traffic_evaluator = None
    if settings.traffic_matrix:
        matrix = TrafficMatrix.seeded(
            nodes=scenario.topology.nodes,
            prefixes=sorted({p for _n, p in scenario.originations}),
            seed=seed,
            rate_range=(min(1.0, settings.packet_rate), settings.packet_rate),
            origins=scenario.origins_by_prefix(),
        )
        traffic_evaluator = TrafficMatrixEvaluator(
            fib_log,
            matrix,
            ttl=settings.ttl,
            epoch_rows=settings.traffic_epoch_rows,
        )
        traffic = traffic_evaluator.evaluate(*window)
    result = LoopStudyResult(
        convergence=convergence,
        dataplane=dataplane,
        loop_intervals=intervals,
        total_messages=len(network.trace),
        traffic=traffic,
    )

    # Telemetry enrichment: lift the post-run analyses (dataplane packet
    # fates, loop intervals) into the same registry/timeline
    # as the live instrumentation, then freeze.  Observation only — nothing
    # here can alter the simulation that already happened.
    metrics = None
    timeline = None
    if probe is not None:
        registry = probe.registry
        registry.counter("dataplane.loops_entered").inc(len(intervals))
        registry.counter("dataplane.loops_exited").inc(
            sum(1 for iv in intervals if iv.end < window[1])
        )
        registry.counter("dataplane.ttl_exhaustions").inc(
            dataplane.ttl_exhaustions
        )
        registry.counter("dataplane.packets_sent").inc(dataplane.packets_sent)
        registry.counter("dataplane.packets_delivered").inc(dataplane.delivered)
        registry.counter("dataplane.packets_dropped_no_route").inc(
            dataplane.dropped_no_route
        )
        # The data-plane pass's own work, summed over both evaluators:
        # walks performed, how many of them a FIB change forced, over how
        # many change instants, and the LPM resolves the matrix pass made.
        for done in (evaluator, traffic_evaluator):
            if done is not None:
                registry.counter("dataplane.walks").inc(done.walks)
                registry.counter("dataplane.walks_invalidated").inc(
                    done.walks_invalidated
                )
                registry.counter("dataplane.change_instants").inc(
                    done.change_instants
                )
        registry.counter("dataplane.lpm_resolves").inc(
            traffic_evaluator.lpm_resolves if traffic_evaluator is not None else 0
        )
        # What this run's scope added to the intern tables, and will pop.
        registry.counter("bgp.paths_interned").inc(
            intern_table_size() - paths_at_start
        )
        registry.counter("bgp.routes_interned").inc(
            route_intern_table_size() - routes_at_start
        )
        timeline = probe.timeline
        if timeline is not None:
            timeline.span(0.0, warmup_time, "warm-up", "phase")
            timeline.instant(failure_time, "failure", "phase")
            timeline.span(failure_time, end_time, "post-failure", "phase")
            for iv in intervals:
                timeline.span(
                    iv.start,
                    iv.end,
                    f"loop[{'-'.join(str(n) for n in iv.cycle)}]",
                    "loop",
                    size=iv.size,
                )
        metrics = probe.snapshot()

    return ExperimentRun(
        scenario=scenario,
        bgp_config=bgp_config,
        settings=settings,
        seed=seed,
        result=result,
        warmup_time=warmup_time,
        failure_time=failure_time,
        end_time=end_time,
        fib_log=fib_log,
        route_log=route_log,
        network=network if keep_network else None,
        metrics=metrics,
        timeline=timeline,
    )
