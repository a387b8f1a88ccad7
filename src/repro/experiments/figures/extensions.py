"""Extension studies: questions the paper raises in prose or leaves open.

* :func:`combinations_clique` / :func:`combinations_internet` — the paper
  evaluates each enhancement alone; their hook points are independent, so
  the promising pairs compose, and each pays a message cost (its
  withdrawal fraction).
* :func:`damping` — Mao et al. (SIGCOMM 2002): RFC 2439 route-flap damping
  mistakes the path exploration after a *single* event for flapping and
  stretches convergence by about an order of magnitude.
* :func:`detection_latency` — the paper models interface-level detection;
  a *silent* failure is seen only when the hold timer expires, which adds
  a black-hole phase before convergence starts.
* :func:`churn_flap_period` — a flapping link re-triggers the
  withdraw/re-advertise wave every period; sweep the period.
* :func:`policy_ablation` — Gao-Rexford export rules prune the obsolete
  backup paths that path exploration walks, so the paper's shortest-path
  setting is close to a worst case.
* :func:`protocol_triangle` — §2's framing on one identical failure: link
  state, distance vector and path vector over the same substrate.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from ...bgp import (
    BgpConfig,
    BgpSpeaker,
    DampingConfig,
    combine,
    interning_scope,
)
from ...core import ObservationCheck, UpdateChurn, loop_timeline
from ...dataplane import FibChangeLog, PacketForwarder, sources_for
from ...engine import RandomStreams, Scheduler
from ...errors import AnalysisError
from ...net import LinkFailure, Network
from ...topology import (
    InternetShape,
    b_clique,
    choose_destination,
    internet_like_with_tiers,
)
from ...util import mean
from ..config import RunSettings
from ..report import TableData
from ..runner import run_experiment
from ..scenarios import (
    Scenario,
    bclique_tflap_trial,
    custom_tdown,
    tdown_clique,
    tdown_internet,
    tlong_bclique,
)
from ..sweep import TrialTask, constant_config, run_trials, sweep
from ..unsafe import TieredGaoRexfordFactory
from .common import in_groups

_COMBINATIONS = (
    ("standard",),
    ("assertion",),
    ("ghost-flushing",),
    ("ssld", "ghost-flushing"),
    ("assertion", "ghost-flushing"),
    ("ssld", "assertion", "ghost-flushing"),
)


def _combinations(
    figure_id: str,
    title: str,
    make_scenario: Callable[[int], Scenario],
    mrai: float,
    seeds: Sequence[int],
) -> Tuple[TableData, Dict[str, float]]:
    """Every combination's seed-mean metrics, and its TTL exhaustions."""
    rows = []
    exhaustions = {}
    for names in _COMBINATIONS:
        config = combine(names, mrai=mrai)
        conv, exh, withdrawals = [], [], []
        for seed in seeds:
            run = run_experiment(
                make_scenario(seed), config, RunSettings(), seed=seed,
                keep_network=True,
            )
            conv.append(run.result.convergence_time)
            exh.append(float(run.result.ttl_exhaustions))
            churn = UpdateChurn.from_trace(run.network.trace, run.failure_time)
            withdrawals.append(churn.withdrawal_fraction)
        label = "+".join(names)
        exhaustions[label] = mean(exh)
        rows.append([label, mean(conv), mean(exh), mean(withdrawals)])
    table = TableData(
        figure_id,
        title,
        ["combination", "convergence_s", "ttl_exhaustions", "withdrawal_frac"],
        rows,
    )
    return table, exhaustions


def combinations_clique(
    size: int = 8, mrai: float = 30.0, seeds: Sequence[int] = (0, 1, 2)
) -> TableData:
    """Enhancement combinations on clique Tdown: composing never hurts.

    Direct (no trial runner): reads the live network's message trace.
    """
    table, exh = _combinations(
        "combinations_clique",
        f"Enhancement combinations, Tdown clique-{size}",
        lambda seed: tdown_clique(size),
        mrai,
        seeds,
    )
    best_single = min(exh["assertion"], exh["ghost-flushing"])
    best_combination = min(exh[label] for label in exh if "+" in label)
    # A small absolute cushion for zero-vs-near-zero cases.
    table.checks.append(
        ObservationCheck(
            "combination-never-hurts",
            best_combination <= best_single + 25,
            f"best combination {best_combination:.2f} vs best single mechanism "
            f"{best_single:.2f} TTL exhaustions (cushion 25)",
        )
    )
    return table


def combinations_internet(
    size: int = 48, mrai: float = 30.0, seeds: Sequence[int] = (0, 1, 2)
) -> TableData:
    """Enhancement combinations on Internet-derived Tdown.

    Direct (no trial runner): reads the live network's message trace.
    """
    table, exh = _combinations(
        "combinations_internet",
        f"Enhancement combinations, Tdown internet-{size}",
        lambda seed: tdown_internet(size, seed=seed),
        mrai,
        seeds,
    )
    table.checks.append(
        ObservationCheck(
            "assertion+ghost-flushing-beats-standard",
            exh["assertion+ghost-flushing"] < exh["standard"],
            f"{exh['assertion+ghost-flushing']:.2f} vs {exh['standard']:.2f} "
            f"TTL exhaustions under standard",
        )
    )
    return table


def damping(
    size: int = 8,
    mrai: float = 5.0,
    half_life: float = 120.0,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """Tlong on a B-Clique with and without RFC 2439 damping.

    With a small MRAI, exploration updates arrive faster than the penalty
    decays, so the dampers suppress merely converging routes; the final
    routing state must still be the undamped one (everyone reachable).

    Direct (no trial runner): reads the live network's dampers and routes.
    """
    config_damping = DampingConfig(half_life=half_life, max_suppress_time=5 * half_life)
    rows = []
    for label, config in (
        ("plain", BgpConfig.standard(mrai)),
        ("damped", BgpConfig(mrai=mrai, damping=config_damping)),
    ):
        conv, exh, suppressions, unreachable = [], [], [], []
        for seed in seeds:
            run = run_experiment(
                tlong_bclique(size), config, RunSettings(), seed=seed,
                keep_network=True,
            )
            nodes = run.network.nodes.values()
            for node in nodes:
                node.check_invariants()
            conv.append(run.result.convergence_time)
            exh.append(float(run.result.ttl_exhaustions))
            suppressions.append(
                float(sum(n.damper.suppressions for n in nodes if n.damper is not None))
            )
            unreachable.append(
                float(sum(1 for n in nodes if n.best_route(run.scenario.prefix) is None))
            )
        rows.append(
            [label, mean(conv), mean(exh), mean(suppressions), mean(unreachable)]
        )
    plain, damped = rows[0][1], rows[1][1]
    return TableData(
        "damping",
        f"Route-flap damping on Tlong B-Clique-{size} (MRAI {mrai}s)",
        ["config", "convergence_s", "ttl_exhaustions", "suppressions",
         "final_unreachable"],
        rows,
        checks=[
            ObservationCheck(
                "damping-slows-convergence",
                damped > 3 * plain,
                f"{damped:.2f} vs {plain:.2f} s undamped (need > 3x)",
            ),
            ObservationCheck(
                "all-reachable-at-end",
                all(row[4] == 0.0 for row in rows),
                "mean unreachable nodes at the end: "
                + ", ".join(f"{row[4]:.2f} ({row[0]})" for row in rows),
            ),
        ],
    )


@interning_scope()
def _silent_failure(size: int, mrai: float, hold_time: float, seed: int):
    """Packet fates around a silent B-Clique Tlong failure, with the
    event-driven forwarder wired to the live link state (packets forwarded
    into the dead link are lost)."""
    config = BgpConfig(
        mrai=mrai,
        processing_delay=(0.05, 0.15),
        hold_time=hold_time,
        keepalive_interval=hold_time / 3.0,
    )
    scheduler = Scheduler()
    streams = RandomStreams(seed)
    topo = b_clique(size)
    network = Network(
        topo,
        scheduler,
        lambda nid, sch: BgpSpeaker(nid, sch, config=config, streams=streams),
    )
    network.node(0).originate("dest")
    network.start()
    scheduler.run(until=60.0)

    failure_time = scheduler.now
    window_end = failure_time + hold_time + 40.0

    def live_fib(node):
        next_hop = network.nodes[node].fib.get("dest")
        if next_hop is None or next_hop == node:
            return next_hop
        if not network.link_is_up(node, next_hop):
            return None  # black-holed at the dead link
        return next_hop

    forwarder = PacketForwarder(scheduler, topo, live_fib, ttl=64)
    forwarder.launch(sources_for(topo.nodes, 0, rate=5.0), failure_time, window_end)
    network.fail_link(0, size, silent=True)
    scheduler.run(until=window_end + 1.0)
    for node in network.nodes.values():
        if node.sessions is not None:
            node.sessions.teardown_all()
    scheduler.run()  # drain the remaining packet events
    return forwarder.report


def detection_latency(
    hold_times: Sequence[float] = (3.0, 9.0, 18.0),
    size: int = 5,
    mrai: float = 5.0,
    seed: int = 0,
) -> TableData:
    """Hold time vs packet loss for a silent (hold-timer-detected) failure.

    Direct (no trial runner): builds its own network and packet forwarder.
    """
    rows = []
    for hold in hold_times:
        report = _silent_failure(size, mrai, hold, seed)
        lost = report.dropped_no_route + report.ttl_exhaustions
        rows.append(
            [hold, report.packets_sent, report.delivered, report.dropped_no_route,
             report.ttl_exhaustions, lost / report.packets_sent]
        )
    losses = [row[3] + row[4] for row in rows]
    return TableData(
        "detection_latency",
        f"Silent Tlong failure on B-Clique-{size}: hold time vs packet loss",
        ["hold_s", "packets", "delivered", "no_route", "looped", "loss_ratio"],
        rows,
        checks=[
            ObservationCheck(
                "loss-grows-with-hold-time",
                losses == sorted(losses) and losses[-1] > losses[0],
                f"packets lost {losses}",
            )
        ],
    )


def churn_flap_period(
    periods: Sequence[float] = (5.0, 15.0, 45.0),
    size: int = 4,
    count: int = 3,
    mrai: float = 2.0,
    seeds: Sequence[int] = (0, 1, 2),
) -> TableData:
    """Loops, looping duration and update load per flap period (Tflap).

    From periods much shorter than one convergence (the network never
    settles between flaps) to periods comfortably longer (each flap
    converges in isolation).  Trials are fault-isolated: one that fails to
    converge is reported by the ``all-trials-converge`` check.
    """
    points = sweep(
        list(periods),
        partial(bclique_tflap_trial, size=size, count=count),
        partial(
            constant_config,
            config=BgpConfig(mrai=mrai, processing_delay=(0.05, 0.15)),
        ),
        seeds=seeds,
        settings=RunSettings(packet_rate=5.0, horizon=500.0),
    )
    dead = [point.x for point in points if not point.succeeded]
    if dead:
        raise AnalysisError(f"every trial failed at flap period(s) {dead}")
    metrics = [point.metrics for point in points]
    failed = sum(point.failed for point in points)
    updates = [m["updates_sent"] for m in metrics]
    loops = [m["distinct_loops"] for m in metrics]
    return TableData(
        "churn_flap_period",
        f"Tflap on B-Clique-{size} ({count} flaps, MRAI {mrai:g}s): "
        f"flap period vs route looping",
        ["period_s", "ok", "loops", "loop_dur_s", "updates", "conv_s"],
        [
            [point.x, f"{point.succeeded}/{point.trials}", m["distinct_loops"],
             round(m["looping_duration"], 2), m["updates_sent"],
             round(m["convergence_time"], 2)]
            for point, m in zip(points, metrics)
        ],
        checks=[
            ObservationCheck(
                "all-trials-converge",
                not failed,
                f"{failed} failed trial(s)",
            ),
            ObservationCheck(
                "flaps-send-updates",
                all(u > 0 for u in updates),
                "mean updates per period " + ", ".join(f"{u:.2f}" for u in updates),
            ),
            ObservationCheck(
                "fast-flapping-loops",
                loops[0] >= loops[-1] or max(loops) > 0,
                "mean distinct loops per period "
                + ", ".join(f"{n:.2f}" for n in loops),
            ),
        ],
    )


#: Gao-Rexford needs a genuine tier-1 mesh (peer routes never transit peers).
_MESHED = InternetShape(core_mesh_probability=1.0)


def meshed_internet_tdown_trial(x: float, seed: int) -> Scenario:
    """Tdown on a tier-meshed Internet-like graph of size x."""
    n = int(x)
    topo, _tiers = internet_like_with_tiers(n, seed=seed, shape=_MESHED)
    return custom_tdown(
        topo, choose_destination(topo, seed=seed), name=f"gr-{n}-s{seed}"
    )


def meshed_internet_gao_rexford(x: float, seed: int) -> TieredGaoRexfordFactory:
    """The Gao-Rexford assignment of that graph, from its tiers."""
    return TieredGaoRexfordFactory(
        *internet_like_with_tiers(int(x), seed=seed, shape=_MESHED)
    )


def policy_ablation(
    sizes: Sequence[int] = (29, 48, 75),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """Tdown under shortest-path vs Gao-Rexford export policies."""
    policies = {"shortest-path": None, "gao-rexford": meshed_internet_gao_rexford}
    config = BgpConfig.standard(mrai)
    runs = run_trials(
        [
            TrialTask(n, seed, meshed_internet_tdown_trial, config, make_policy=make)
            for n in sizes
            for make in policies.values()
            for seed in seeds
        ]
    )
    groups = iter(in_groups(runs, len(seeds)))
    rows: List[list] = []
    totals = {name: [0.0, 0.0] for name in policies}
    for n in sizes:
        for policy_name, total in totals.items():
            results = [run.result for run in next(groups)]
            conv = mean([result.convergence_time for result in results])
            exh = mean([float(result.ttl_exhaustions) for result in results])
            rows.append([n, policy_name, conv, exh])
            total[0] += conv
            total[1] += exh
    (sp_conv, sp_exh), (gr_conv, gr_exh) = totals.values()
    return TableData(
        "policy_ablation",
        "Tdown under shortest-path vs Gao-Rexford policies",
        ["size", "policy", "convergence_s", "ttl_exhaustions"],
        rows,
        checks=[
            ObservationCheck(
                "gao-rexford-converges-faster",
                gr_conv < 0.5 * sp_conv,
                f"summed convergence {gr_conv:.2f} vs {sp_conv:.2f} s "
                f"shortest-path (need < half)",
            ),
            ObservationCheck(
                "gao-rexford-loops-less",
                gr_exh < 0.25 * sp_exh,
                f"summed TTL exhaustions {gr_exh:.2f} vs {sp_exh:.2f} "
                f"shortest-path (need < a quarter)",
            ),
        ],
    )


@interning_scope()
def _after_one_failure(size: int, make_speaker, label: str) -> list:
    """One Tlong failure on a B-Clique under one protocol: a table row."""
    scheduler = Scheduler()
    log = FibChangeLog()
    network = Network(
        b_clique(size), scheduler, lambda nid, sch: make_speaker(nid, sch, log)
    )
    origin = network.node(0)
    if hasattr(origin, "originate"):
        origin.originate("dest")
    network.start()
    scheduler.run(max_events=500_000)

    failure_time = scheduler.now + 1.0
    LinkFailure(0, size, at=failure_time).inject(network)
    before = len(network.trace)
    scheduler.run(max_events=500_000)

    last = network.trace.last_time(lambda record: record.time >= failure_time)
    convergence = (last - failure_time) if last is not None else 0.0
    intervals = loop_timeline(log, "dest", failure_time, scheduler.now)
    longest = max((interval.duration for interval in intervals), default=0.0)
    return [label, convergence, len(intervals), longest, len(network.trace) - before]


def protocol_triangle(
    size: int = 4,
    mrai: float = 30.0,
    processing_delay: Tuple[float, float] = (0.1, 0.5),
    seed: int = 1,
) -> TableData:
    """Link state vs distance vector vs path vector on one B-Clique Tlong.

    Same ring, same failed link, same processing delays, same loop metrics:
    the only variable is the protocol.

    Direct (no trial runner): builds its own networks of three protocols.
    """
    from ...dv import RipSpeaker  # only this study needs the other protocols
    from ...ls import LinkStateSpeaker

    bgp_config = BgpConfig(mrai=mrai, processing_delay=processing_delay)
    streams = [RandomStreams(seed) for _ in range(3)]
    rows = [
        _after_one_failure(
            size,
            lambda nid, sch, log: LinkStateSpeaker(
                nid, sch, streams[0], destinations={"dest": 0},
                processing_delay=processing_delay, fib_listener=log.record,
            ),
            "link-state",
        ),
        _after_one_failure(
            size,
            lambda nid, sch, log: RipSpeaker(
                nid, sch, streams[1], processing_delay=processing_delay,
                poison_reverse=True, fib_listener=log.record,
            ),
            "distance-vector",
        ),
        _after_one_failure(
            size,
            lambda nid, sch, log: BgpSpeaker(
                nid, sch, config=bgp_config, streams=streams[2],
                fib_listener=log.record,
            ),
            "path-vector (BGP)",
        ),
    ]
    ls, dv, pv = rows
    return TableData(
        "protocol_triangle",
        f"One Tlong failure on B-Clique-{size}, three protocols",
        ["protocol", "convergence_s", "loops", "longest_loop_s", "messages"],
        rows,
        checks=[
            ObservationCheck(
                "link-state-fastest-bgp-slowest",
                ls[1] < dv[1] < pv[1],
                f"convergence {ls[1]:.2f} / {dv[1]:.2f} / {pv[1]:.2f} s "
                f"(link state / distance vector / path vector)",
            ),
            ObservationCheck(
                "distance-vector-most-messages",
                dv[4] > max(ls[4], pv[4]),
                f"messages {ls[4]} / {dv[4]} / {pv[4]}",
            ),
            ObservationCheck(
                "every-protocol-loops",
                all(row[2] >= 1 for row in rows),
                "transient loops " + " / ".join(str(row[2]) for row in rows),
            ),
        ],
    )
