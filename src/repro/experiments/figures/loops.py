"""Individual loops and the paths around them: the paper's §6 plan.

"As our next steps, we plan to examine route change traces to measure the
statistics of individual loops such as the loop size and duration."

* :func:`loop_statistics` — loop sizes and lifetimes pooled per scenario,
  against Hengartner et al.'s backbone measurement (more than half of the
  observed loops involved only two nodes) and the §3.2 bound.
* :func:`exploration` — path exploration from route-change traces: after a
  Tdown every node serially adopts longer obsolete paths, each adoption
  gated by the MRAI timer, so exploration deepens with the pool of
  alternatives (clique size) and Observation 1 follows as convergence ≈
  depth × M.
* :func:`detour_delay` — delivered packets during convergence take longer
  trajectories than any steady-state path, the simulated analogue of the
  25-1300 ms loop-escape delays Hengartner et al. measured (hops converted
  to delay via the 2 ms link latency).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ...bgp import BgpConfig
from ...core import (
    ExplorationReport,
    LoopStatistics,
    ObservationCheck,
    worst_case_loop_duration,
)
from ...dataplane import EpochEvaluator, sources_for
from ...topology import DEFAULT_LINK_DELAY
from ...util import mean
from ..config import RunSettings
from ..report import TableData
from ..runner import run_experiment
from ..scenarios import Scenario, tdown_clique, tdown_internet, tlong_bclique


def _pooled_loops(
    make_scenario: Callable[[int], Scenario], mrai: float, seeds: Sequence[int]
) -> LoopStatistics:
    parts = []
    for seed in seeds:
        run = run_experiment(
            make_scenario(seed), BgpConfig.standard(mrai), RunSettings(), seed=seed
        )
        parts.append(
            LoopStatistics.from_intervals(
                run.result.loop_intervals, failure_time=run.failure_time
            )
        )
    return LoopStatistics.merge(parts)


def loop_statistics(
    clique_size: int = 12,
    bclique_size: int = 8,
    internet_size: int = 75,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """Loop count, 2-node share and lifetime percentiles per scenario.

    The 2-node claim is checked only where the topology resembles a real
    backbone (B-Clique and Internet-derived): dense full meshes grow longer
    cycles.
    """
    scenarios = (  # (label, resembles a backbone, one trial's scenario)
        (f"tdown clique-{clique_size}", False, lambda seed: tdown_clique(clique_size)),
        (f"tlong b-clique-{bclique_size}", True, lambda seed: tlong_bclique(bclique_size)),
        (
            f"tdown internet-{internet_size}",
            True,
            lambda seed: tdown_internet(internet_size, seed=seed),
        ),
    )
    pooled = {label: _pooled_loops(make, mrai, seeds) for label, _, make in scenarios}
    backbone = [(label, pooled[label]) for label, real, _ in scenarios if real]
    rows = [
        [label, stats.count, stats.two_node_share()]
        + (
            [stats.duration_percentile(50), stats.duration_percentile(90),
             stats.duration_summary().maximum, max(stats.sizes())]
            if stats.count
            else [None] * 4
        )
        for label, stats in pooled.items()
    ]
    over_bound = [
        (label, interval)
        for label, stats in pooled.items()
        for interval in stats.intervals
        if interval.duration > worst_case_loop_duration(interval.size, mrai) + 2.0
    ]
    return TableData(
        "loop_statistics",
        f"Individual-loop statistics (MRAI {mrai:g}s)",
        ["scenario", "loops", "2node_share", "p50_life_s", "p90_life_s",
         "max_life_s", "max_size"],
        rows,
        checks=[
            ObservationCheck(
                "loops-observed",
                all(stats.count > 0 for stats in pooled.values()),
                "loops per scenario: "
                + ", ".join(str(stats.count) for stats in pooled.values()),
            ),
            ObservationCheck(
                "two-node-loops-dominate",
                all(stats.two_node_share() >= 0.5 for _, stats in backbone),
                ", ".join(
                    f"{stats.two_node_share():.2f} ({label})"
                    for label, stats in backbone
                )
                + " (Hengartner et al.: >= 0.5 on a backbone)",
            ),
            ObservationCheck(
                "loops-within-theory-bound",
                not over_bound,
                "no loop outlives (size-1)*M + 2 s"
                if not over_bound
                else f"{len(over_bound)} loop(s) over (size-1)*M + 2 s, "
                f"first {over_bound[0]}",
            ),
        ],
    )


def exploration(
    sizes: Sequence[int] = (5, 8, 11, 14),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """Exploration depth per clique size, from the route-change traces."""
    rows = []
    for n in sizes:
        depth, length, changes, non_shortening = [], [], [], []
        for seed in seeds:
            scenario = tdown_clique(n)
            run = run_experiment(
                scenario, BgpConfig.standard(mrai), RunSettings(), seed=seed
            )
            report = ExplorationReport.from_log(
                run.route_log, scenario.prefix, since=run.failure_time
            )
            depth.append(report.mean_depth())
            length.append(float(report.longest_path_explored()))
            changes.append(mean([float(c) for c in report.changes_per_node().values()]))
            non_shortening.append(report.non_shortening_fraction())
        rows.append(
            [n, mean(depth), mean(length), mean(changes), mean(non_shortening)]
        )
    depths = [row[1] for row in rows]
    lowest = min(row[4] for row in rows)
    return TableData(
        "exploration",
        "Path exploration in Tdown cliques (route-change traces)",
        ["clique_size", "mean_depth", "longest_path", "changes_per_node",
         "non_shortening"],
        rows,
        checks=[
            ObservationCheck(
                "exploration-deepens",
                depths == sorted(depths) and depths[-1] > depths[0],
                "mean depth " + ", ".join(f"{d:.2f}" for d in depths),
            ),
            # Not an absolute: a neighbor's freshly adopted stale path can
            # occasionally be shorter than the receiver's current one.
            ObservationCheck(
                "paths-never-shorten",
                lowest >= 0.99,
                f"lowest non-shortening share {lowest:.3f} (need >= 0.99)",
            ),
        ],
    )


def detour_delay(
    size: int = 6, mrai: float = 30.0, seed: int = 0, steady_window: float = 60.0
) -> TableData:
    """Delivered-packet hop counts during a Tlong convergence vs after it."""
    scenario = tlong_bclique(size)
    run = run_experiment(scenario, BgpConfig.standard(mrai), RunSettings(), seed=seed)
    evaluator = EpochEvaluator(
        run.fib_log,
        scenario.prefix,
        sources_for(scenario.topology.nodes, scenario.destination, rate=10.0),
    )
    end = run.result.convergence.convergence_end
    during = evaluator.evaluate(run.failure_time, end)
    after = evaluator.evaluate(end, end + steady_window)
    to_ms = DEFAULT_LINK_DELAY * 1000.0
    return TableData(
        "detour_delay",
        f"Delivered-packet path stretch, Tlong B-Clique-{size}",
        ["phase", "delivered", "mean_hops", "mean_delay_ms", "max_hops"],
        [
            [label, report.delivered, report.mean_delivered_hops,
             report.mean_delivered_hops * to_ms, report.max_delivered_hops()]
            for label, report in (
                ("during convergence", during),
                ("steady state after", after),
            )
        ],
        checks=[
            ObservationCheck(
                "both-phases-deliver",
                during.delivered > 0 and after.delivered > 0,
                f"{during.delivered} packets delivered during, "
                f"{after.delivered} after",
            ),
            # The post-failure steady state uses the long backup chain, so
            # compare maxima rather than means.
            ObservationCheck(
                "detours-outlast-steady-state",
                during.max_delivered_hops() >= after.max_delivered_hops(),
                f"longest delivered trajectory {during.max_delivered_hops()} "
                f"hops during convergence, {after.max_delivered_hops()} after",
            ),
            ObservationCheck(
                "steady-state-loop-free",
                after.ttl_exhaustions == 0,
                f"{after.ttl_exhaustions} TTL exhaustions after convergence",
            ),
        ],
    )
