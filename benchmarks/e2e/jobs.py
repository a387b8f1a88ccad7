"""One simulator job: the plain call, its staged replica, and the checks.

The plain job is ``run_experiment``.  The staged replica runs the same steps
through public calls only, so that each stage can carry a span; the two must
produce the same ``fingerprint_run`` digest.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.analysis.determinism import fingerprint_run
from repro.bgp import BgpSpeaker
from repro.bgp.aggregation import apply_aggregate, apply_deaggregate
from repro.bgp.messages import Announcement, UpdateBatch, Withdrawal
from repro.core import LoopStudyResult, loop_timeline, measure_convergence
from repro.core.exploration import RouteChangeLog
from repro.core.loop_theory import worst_case_loop_duration
from repro.dataplane import (
    EpochEvaluator,
    FibChangeLog,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    sources_for,
)
from repro.engine import RandomStreams, Scheduler
from repro.errors import SimulationError
from repro.experiments import (
    EventKind,
    ExperimentRun,
    build_network,
    run_experiment,
)
from repro.net import LinkFlap

from tracing import Tracer
from workloads import SimWorkload


@dataclass
class JobResult:
    """What one job cost and whether its outputs passed the checks."""

    seed: int
    wall_s: float
    events: int = 0
    route_updates: int = 0
    digest: str = ""
    loops: int = 0
    loops_over_bound: int = 0
    packets_offered: int = 0
    fingerprint_s: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def count_route_updates(trace) -> int:
    """Per-prefix route updates carried by the messages of a trace."""
    total = 0
    for record in trace:
        message = record.message
        if isinstance(message, UpdateBatch):
            total += len(message.withdrawn) + len(message.nlri)
        elif isinstance(message, (Announcement, Withdrawal)):
            total += 1
    return total


def loops_over_bound(intervals, mrai: float) -> int:
    """Loops that outlived the paper's ``(m - 1) x M`` bound."""
    return sum(
        1
        for interval in intervals
        if interval.end - interval.start > worst_case_loop_duration(interval.size, mrai)
    )


def check_run(
    workload: SimWorkload, run: ExperimentRun, result: JobResult, fingerprint: bool
) -> None:
    """Fill in the counts and record every failed check on ``result``."""
    result.events = run.network.scheduler.events_processed
    result.route_updates = count_route_updates(run.network.trace)
    if fingerprint:
        started = time.perf_counter()
        result.digest = fingerprint_run(run).digest
        result.fingerprint_s = time.perf_counter() - started
    result.loops = len(run.result.loop_intervals)
    result.loops_over_bound = loops_over_bound(
        run.result.loop_intervals, workload.config.mrai
    )
    if not run.converged:
        result.failures.append("did not converge")
    if workload.enforce_loop_bound and result.loops_over_bound:
        result.failures.append(
            f"{result.loops_over_bound} loops outlived the (m-1) x M bound"
        )
    traffic = run.result.traffic
    if workload.settings.traffic_matrix:
        if traffic is None or traffic.offered <= 0:
            result.failures.append("no traffic report")
        else:
            result.packets_offered = traffic.offered
            fates = traffic.delivered + traffic.blackholed + traffic.looped
            if fates != traffic.offered:
                result.failures.append(
                    f"traffic fates sum to {fates} of {traffic.offered} offered"
                )


def run_job(
    workload: SimWorkload,
    size,
    seed: int,
    collect: bool = True,
    telemetry: bool = False,
    fingerprint: bool = True,
) -> JobResult:
    """One plain job.  ``collect`` empties the garbage of the job before, so
    that this job does not pay for collecting it; ``fingerprint`` is off for
    jobs whose digest nobody compares."""
    scenario = workload.scenario(size, seed)
    settings = workload.settings
    if telemetry:
        settings = replace(settings, telemetry=True)
    if collect:
        gc.collect()
    started = time.perf_counter()
    try:
        run = run_experiment(
            scenario, workload.config, settings, seed=seed, keep_network=True
        )
    except SimulationError as exc:
        return JobResult(
            seed=seed,
            wall_s=time.perf_counter() - started,
            failures=[f"{type(exc).__name__}: {str(exc).splitlines()[0]}"],
        )
    result = JobResult(seed=seed, wall_s=time.perf_counter() - started)
    check_run(workload, run, result, fingerprint)
    return result


def staged_job(
    workload: SimWorkload, size, seed: int, tracer: Optional[Tracer] = None
) -> JobResult:
    """The same job as :func:`run_job`, stage by stage through public calls.

    With a ``tracer`` every stage is a span; the caller has installed the
    boundary wrappers (see ``layers.BOUNDARIES``) on the same tracer.
    """
    tracer = tracer if tracer is not None else Tracer()
    config, settings = workload.config, workload.settings

    span = tracer.begin("topology.build")
    scenario = workload.scenario(size, seed)
    tracer.end(span)

    gc.collect()
    root = tracer.begin("experiments.job")
    streams = RandomStreams(seed)
    scheduler = Scheduler()
    fib_log = FibChangeLog()
    route_log = RouteChangeLog()

    span = tracer.begin("experiments.build_network")
    network = build_network(
        scenario, config, streams, scheduler, fib_log, None, route_log
    )
    network.start()
    tracer.end(span)

    settle = None
    if config.sessions_enabled:
        settle = config.hold_time + config.effective_keepalive
    scheduler.run(until=None, max_events=settings.event_budget, settle=settle)
    warmup_time = scheduler.now
    failure_time = warmup_time + settings.failure_guard

    def origin_event(action):
        return tracer.wrapped(action, "bgp.origin_event")

    def speaker(node_id) -> BgpSpeaker:
        return network.node(node_id)

    if scenario.event is EventKind.TDOWN:
        origin = speaker(scenario.destination)
        scheduler.call_at(
            failure_time,
            origin_event(lambda: origin.withdraw_origin(scenario.prefix)),
            priority=0,
            name="tdown",
        )
    elif scenario.event is EventKind.TFLAP:
        u, v = scenario.failed_link
        LinkFlap(
            u, v, failure_time, scenario.flap_period, count=scenario.flap_count
        ).inject(network)
    elif scenario.event is EventKind.TAGG:

        def inject_aggregate() -> None:
            for block in scenario.agg_blocks:
                apply_aggregate(speaker(block.origin), block)

        def inject_deaggregate() -> None:
            for block in scenario.agg_blocks:
                apply_deaggregate(speaker(block.origin), block)

        scheduler.call_at(
            failure_time,
            origin_event(inject_aggregate),
            priority=0,
            name="tagg-aggregate",
        )
        scheduler.call_at(
            failure_time + scenario.agg_hold,
            origin_event(inject_deaggregate),
            priority=0,
            name="tagg-deaggregate",
        )
    else:
        raise ValueError(f"no workload injects {scenario.event!r}")

    scheduler.run(
        until=failure_time + settings.horizon,
        max_events=settings.event_budget,
        settle=settle,
    )
    quiescent = scheduler.next_substantive_time() is None
    end_time = max(failure_time, scheduler.last_substantive_event_time or failure_time)

    span = tracer.begin("core.measure_convergence")
    convergence = measure_convergence(network.trace, failure_time)
    tracer.end(span)
    window = (failure_time, convergence.convergence_end)
    sources = sources_for(
        scenario.topology.nodes, scenario.destination, rate=settings.packet_rate
    )
    dataplane = EpochEvaluator(
        log=fib_log, prefix=scenario.prefix, sources=sources, ttl=settings.ttl
    ).evaluate(*window)
    span = tracer.begin("core.loop_timeline")
    intervals = loop_timeline(fib_log, scenario.prefix, window[0], window[1])
    tracer.end(span)
    traffic = None
    if settings.traffic_matrix:
        span = tracer.begin("dataplane.traffic_seed")
        matrix = TrafficMatrix.seeded(
            nodes=scenario.topology.nodes,
            prefixes=sorted({p for _n, p in scenario.effective_originations}),
            seed=seed,
            rate_range=(min(1.0, settings.packet_rate), settings.packet_rate),
            origins=scenario.origins_by_prefix(),
        )
        tracer.end(span)
        traffic = TrafficMatrixEvaluator(
            fib_log, matrix, ttl=settings.ttl, epoch_rows=settings.traffic_epoch_rows
        ).evaluate(*window)
    run = ExperimentRun(
        scenario=scenario,
        bgp_config=config,
        settings=settings,
        seed=seed,
        result=LoopStudyResult(
            convergence=convergence,
            dataplane=dataplane,
            loop_intervals=intervals,
            total_messages=len(network.trace),
            traffic=traffic,
        ),
        warmup_time=warmup_time,
        failure_time=failure_time,
        end_time=end_time,
        fib_log=fib_log,
        route_log=route_log,
        network=network,
    )
    wall_s = tracer.end(root)

    result = JobResult(seed=seed, wall_s=wall_s)
    check_run(workload, run, result, fingerprint=True)
    if not quiescent:
        result.failures.append("did not converge")
    return result
