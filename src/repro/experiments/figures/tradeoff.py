"""Packet-fate tradeoff study: loops traded for drops.

§5's caveat about the winning enhancement: Ghost Flushing "provides fast
propagation of failure information without propagating the new reachability
information at the same speed.  Thus nodes that lost their current path to
the destination ... end up dropping packets, as opposed to continuing
forwarding packets based on the old reachability information."

These drivers quantify that tradeoff, which the paper discusses but does
not plot: for a Tlong event (where delivery remains possible) they break
every packet sent during convergence into delivered / dropped-no-route /
looped-to-death, per protocol variant, on a B-Clique and on an
Internet-derived graph.  The Assertion approach trades loops for drops
even harder than Ghost Flushing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ...bgp import VARIANT_NAMES, variant
from ...core import ObservationCheck
from ...errors import AnalysisError
from ...util import mean
from ..config import RunSettings
from ..report import TableData
from ..runner import run_experiment
from ..scenarios import Scenario, tlong_bclique, tlong_internet


@dataclass(frozen=True)
class FateBreakdown:
    """Mean packet-fate fractions for one protocol variant."""

    variant: str
    packets_sent: float
    delivered_ratio: float
    no_route_ratio: float
    looped_ratio: float

    def row(self) -> List:
        return [
            self.variant,
            self.packets_sent,
            self.delivered_ratio,
            self.no_route_ratio,
            self.looped_ratio,
        ]


def packet_fate_breakdown(
    make_scenario: Callable[[int], Scenario],
    variant_names: Sequence[str],
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
) -> Dict[str, FateBreakdown]:
    """Run each variant over the seeded scenarios and pool packet fates."""
    if not seeds:
        raise AnalysisError("need at least one seed")
    result: Dict[str, FateBreakdown] = {}
    for name in variant_names:
        config = variant(name, mrai=mrai)
        sent: List[float] = []
        delivered: List[float] = []
        no_route: List[float] = []
        looped: List[float] = []
        for seed in seeds:
            report = run_experiment(
                make_scenario(seed), config, settings=settings, seed=seed
            ).result.dataplane
            sent.append(float(report.packets_sent))
            total = report.packets_sent or 1
            delivered.append(report.delivered / total)
            no_route.append(report.dropped_no_route / total)
            looped.append(report.ttl_exhaustions / total)
        result[name] = FateBreakdown(
            variant=name,
            packets_sent=mean(sent),
            delivered_ratio=mean(delivered),
            no_route_ratio=mean(no_route),
            looped_ratio=mean(looped),
        )
    return result


def _fate_study(
    figure_id: str,
    title: str,
    make_scenario: Callable[[int], Scenario],
    mrai: float,
    seeds: Sequence[int],
    settings: RunSettings,
) -> TableData:
    """Every variant's packet fates, checked for the loops-for-drops trade."""
    breakdowns = packet_fate_breakdown(
        make_scenario, VARIANT_NAMES, mrai=mrai, seeds=seeds, settings=settings
    )
    standard, flushing = breakdowns["standard"], breakdowns["ghost-flushing"]
    return TableData(
        figure_id,
        title,
        ["variant", "packets", "delivered", "dropped_no_route", "looped"],
        [breakdown.row() for breakdown in breakdowns.values()],
        checks=[
            ObservationCheck(
                "ghost-flushing-loops-less",
                flushing.looped_ratio < 0.5 * standard.looped_ratio,
                f"looped share {flushing.looped_ratio:.2f} vs "
                f"{standard.looped_ratio:.2f} under standard (need < half)",
            ),
            ObservationCheck(
                "ghost-flushing-drops-more",
                flushing.no_route_ratio > 1.5 * standard.no_route_ratio,
                f"no-route share {flushing.no_route_ratio:.2f} vs "
                f"{standard.no_route_ratio:.2f} under standard (need > 1.5x)",
            ),
        ],
    )


def tradeoff_bclique(
    size: int = 8,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
) -> TableData:
    """Packet fates per variant, Tlong on a B-Clique."""
    return _fate_study(
        "tradeoff_bclique",
        f"Packet fates, Tlong B-Clique-{size}",
        lambda seed: tlong_bclique(size),
        mrai,
        seeds,
        settings,
    )


def tradeoff_internet(
    size: int = 48,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
) -> TableData:
    """Packet fates per variant, Tlong on an Internet-derived graph."""
    return _fate_study(
        "tradeoff_internet",
        f"Packet fates, Tlong internet-{size}",
        lambda seed: tlong_internet(size, seed=seed),
        mrai,
        seeds,
        settings,
    )
