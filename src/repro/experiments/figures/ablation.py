"""Ablations of the design choices DESIGN.md calls out, and the MRAI optimum.

* **Epoch evaluator vs per-packet simulation** — the substitution that
  makes 110-node × 500 s runs feasible: both engines over one window must
  agree on the packet counts.
* **MRAI = 0** — the paper's central mechanism removed: convergence gets
  faster, but at the price of an update storm.
* **Jitter off** — deterministic MRAI timers keep the qualitative picture.
* **Processing-delay sweep** — with MRAI at 30 s, nodal delay is a
  second-order effect (the paper's argument for why the timer dominates).
* **Griffin-Premore MRAI optimum** — the paper's footnote 3: convergence is
  linear in M only above a topology-specific optimum; below it the
  un-throttled message storm keeps the serialized router CPUs busy and
  convergence *rises* again as M shrinks, a U-curve.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ...bgp import BgpConfig
from ...core import ObservationCheck
from ...dataplane import EpochEvaluator, PacketForwarder, sources_for
from ..config import RunSettings
from ..report import TableData
from ..resilience import ResiliencePolicy
from ..runner import run_experiment
from ..scenarios import tdown_clique
from ..sweep import series
from .common import clique_mrai_sweep


def ablation_dataplane(
    size: int = 6, mrai: float = 5.0, window: float = 30.0, seed: int = 4
) -> TableData:
    """One Tdown window through both data-plane engines: the counts agree."""
    scenario = tdown_clique(size)
    attached = {}

    def attach(network, failure_time):
        sources = sources_for(scenario.topology.nodes, scenario.destination, rate=20.0)
        forwarder = PacketForwarder(
            network.scheduler,
            scenario.topology,
            lambda node: network.nodes[node].fib.get(scenario.prefix),
            ttl=32,
        )
        forwarder.launch(sources, failure_time, failure_time + window)
        attached.update(forwarder=forwarder, sources=sources, t0=failure_time)

    run = run_experiment(
        scenario,
        BgpConfig(mrai=mrai),
        settings=RunSettings(ttl=32, packet_rate=20.0),
        seed=seed,
        on_network_ready=attach,
    )
    t0 = attached["t0"]
    epoch = EpochEvaluator(
        run.fib_log, scenario.prefix, attached["sources"], ttl=32
    ).evaluate(t0, t0 + window)
    exact = attached["forwarder"].report
    tolerance = max(3, int(0.02 * exact.packets_sent))
    return TableData(
        "ablation_dataplane",
        "Ablation: epoch evaluation vs per-packet events",
        ["engine", "packets", "ttl_exhaustions", "delivered"],
        [
            ["per-packet", exact.packets_sent, exact.ttl_exhaustions, exact.delivered],
            ["epoch", epoch.packets_sent, epoch.ttl_exhaustions, epoch.delivered],
        ],
        checks=[
            ObservationCheck(
                "epoch-matches-per-packet",
                epoch.packets_sent == exact.packets_sent
                and abs(epoch.ttl_exhaustions - exact.ttl_exhaustions) <= tolerance,
                f"packets {epoch.packets_sent} vs {exact.packets_sent}, TTL "
                f"exhaustions {epoch.ttl_exhaustions} vs {exact.ttl_exhaustions} "
                f"(tolerance {tolerance})",
            )
        ],
    )


def ablation_mrai(size: int = 8, mrai: float = 30.0, seed: int = 5) -> TableData:
    """Removing the MRAI timer: faster convergence, but an update storm.

    Convergence does not collapse to milliseconds: the exploration updates
    (an order of magnitude more messages) saturate the serialized per-node
    processing, which is why Griffin & Premore conclude the timer is
    necessary and why the paper treats it as load-bearing.
    """
    with_mrai, without = (
        run_experiment(
            tdown_clique(size), BgpConfig(mrai=value), RunSettings(), seed=seed
        ).result
        for value in (mrai, 0.0)
    )
    storm = without.convergence.update_count / with_mrai.convergence.update_count
    return TableData(
        "ablation_mrai",
        f"Ablation: the MRAI timer (clique-{size} Tdown)",
        ["config", "convergence_s", "looping_s", "ttl_exhaustions", "updates"],
        [
            [f"MRAI={value:g}", result.convergence_time,
             result.overall_looping_duration, result.ttl_exhaustions,
             result.convergence.update_count]
            for value, result in ((mrai, with_mrai), (0.0, without))
        ],
        checks=[
            ObservationCheck(
                "mrai0-converges-faster",
                without.convergence_time < with_mrai.convergence_time
                and without.overall_looping_duration
                < with_mrai.overall_looping_duration,
                f"convergence {without.convergence_time:.2f} vs "
                f"{with_mrai.convergence_time:.2f} s, looping "
                f"{without.overall_looping_duration:.2f} vs "
                f"{with_mrai.overall_looping_duration:.2f} s",
            ),
            ObservationCheck(
                "mrai0-update-storm",
                storm > 3,
                f"{storm:.1f}x the updates without the timer (need > 3x)",
            ),
        ],
    )


def ablation_jitter(size: int = 8, mrai: float = 30.0, seed: int = 6) -> TableData:
    """Deterministic (jitter-free) MRAI keeps the qualitative picture."""
    runs = [
        (label, run_experiment(
            tdown_clique(size), config, RunSettings(), seed=seed
        ).result)
        for label, config in (
            ("0.75-1.0", BgpConfig(mrai=mrai)),
            ("none", BgpConfig(mrai=mrai, mrai_jitter=(1.0, 1.0))),
        )
    ]
    shares = [r.overall_looping_duration / r.convergence_time for _, r in runs]
    return TableData(
        "ablation_jitter",
        f"Ablation: MRAI jitter (clique-{size} Tdown)",
        ["jitter", "convergence_s", "looping_s", "looping_ratio"],
        [
            [label, r.convergence_time, r.overall_looping_duration, r.looping_ratio]
            for label, r in runs
        ],
        checks=[
            ObservationCheck(
                "looping-spans-convergence",
                min(shares) > 0.5,
                "looping/convergence "
                + ", ".join(f"{share:.2f}" for share in shares)
                + " (need > 0.5 with and without jitter)",
            )
        ],
    )


def ablation_processing_delay(
    size: int = 8,
    mrai: float = 30.0,
    delays: Sequence[Tuple[float, float]] = ((0.01, 0.05), (0.1, 0.5), (0.5, 1.0)),
    seed: int = 7,
) -> TableData:
    """At MRAI 30 s, scaling nodal delay 50x barely moves the metrics."""
    rows = []
    for low, high in delays:
        result = run_experiment(
            tdown_clique(size),
            BgpConfig(mrai=mrai, processing_delay=(low, high)),
            RunSettings(),
            seed=seed,
        ).result
        rows.append(
            [f"U[{low},{high}]", result.convergence_time,
             result.overall_looping_duration, result.looping_ratio]
        )
    spread = max(row[1] for row in rows) / min(row[1] for row in rows)
    return TableData(
        "ablation_processing_delay",
        f"Ablation: message processing delay under MRAI={mrai:g} "
        f"(clique-{size} Tdown)",
        ["processing_delay", "convergence_s", "looping_s", "looping_ratio"],
        rows,
        checks=[
            ObservationCheck(
                "mrai-sets-time-scale",
                spread < 3,
                f"convergence varies {spread:.2f}x across the delays (need < 3x)",
            )
        ],
    )


def mrai_optimum(
    mrai_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> TableData:
    """Convergence vs M on a clique Tdown: the Griffin-Premore U-curve."""
    points = clique_mrai_sweep(mrai_values, clique_size, seeds, jobs, policy)
    conv = series(points, "convergence_time")
    updates = series(points, "updates_sent")
    best = conv.index(min(conv))
    return TableData(
        "mrai_optimum",
        f"Griffin-Premore MRAI optimum (Tdown clique-{clique_size})",
        ["mrai", "convergence_s", "updates"],
        [list(row) for row in zip(mrai_values, conv, updates)],
        checks=[
            ObservationCheck(
                "interior-optimum",
                0 < best < len(conv) - 1
                and min(conv[0], conv[-1]) > 1.5 * conv[best],
                f"fastest at M={mrai_values[best]:g} s ({conv[best]:.2f} s); "
                f"{conv[0] / conv[best]:.1f}x at the smallest M, "
                f"{conv[-1] / conv[best]:.1f}x at the largest (need > 1.5x)",
            ),
            ObservationCheck(
                "updates-fall-with-mrai",
                updates[0] > updates[-1],
                f"{updates[0]:.0f} updates at the smallest M, "
                f"{updates[-1]:.0f} at the largest",
            ),
        ],
    )
