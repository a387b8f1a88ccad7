"""Figure 8: the four convergence enhancements under Tdown.

Four panels: (a) TTL exhaustions normalized by standard BGP in Cliques,
(b) convergence time in Cliques, (c) TTL exhaustions and (d) convergence
time in Internet-derived topologies.  Expected shape (Observation 3):
Assertion dominates in Cliques (direct neighbors of the origin assert every
backup away at once); Ghost Flushing is best on Internet-derived graphs and
cuts looping by >= 80%; SSLD helps modestly; WRATE is mixed-to-harmful.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ...bgp import VARIANT_NAMES
from ...core import ObservationCheck, check_enhancement_ranking
from ..config import RunSettings
from ..resilience import ResiliencePolicy
from ..report import FigureData
from ..scenarios import clique_tdown_trial, internet_tdown_trial
from .common import normalize_to, variant_comparison_series


def _comparison_figure(
    figure_id: str,
    title: str,
    x_label: str,
    xs: Sequence[int],
    raw: Dict[str, List[float]],
    normalized: bool,
    add_ranking_check: bool,
    ghost_flushing_improvement: float = 0.5,
) -> FigureData:
    shown = raw
    if normalized:
        shown = normalize_to(raw["standard"], raw)
    figure = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        xs=[float(x) for x in xs],
        series=shown,
    )
    if add_ranking_check:
        at_largest = {name: values[-1] for name, values in raw.items()}
        figure.checks.extend(
            check_enhancement_ranking(
                at_largest, ghost_flushing_improvement=ghost_flushing_improvement
            )
        )
    return figure


def _add_final_check(
    figure: FigureData,
    name: str,
    claim: str,
    shown: Sequence[str],
    holds: Callable[[Dict[str, float]], bool],
) -> None:
    """Check ``holds`` on the plotted values at the largest size.

    The verdict quotes the ``shown`` variants' values there.
    """
    final = {variant: values[-1] for variant, values in figure.series.items()}
    values = ", ".join(f"{variant} {final[variant]:.2f}" for variant in shown)
    figure.checks.append(
        ObservationCheck(name, holds(final), f"{claim}; at the largest size {values}")
    )


def figure8a(
    sizes: Sequence[int] = (5, 8, 11, 14),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """TTL exhaustions normalized by standard BGP, Tdown in Cliques."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        clique_tdown_trial,
        "ttl_exhaustions",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig8a",
        "Tdown TTL exhaustions normalized by standard BGP (Clique)",
        "clique_size",
        list(sizes),
        raw,
        normalized=True,
        add_ranking_check=True,
    )
    _add_final_check(
        figure,
        "obs3-assertion-best",
        "assertion loops least of all variants",
        VARIANT_NAMES,
        lambda final: final["assertion"] == min(final.values()),
    )
    return figure


def figure8b(
    sizes: Sequence[int] = (5, 8, 11, 14),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Convergence time per variant, Tdown in Cliques."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        clique_tdown_trial,
        "convergence_time",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig8b",
        "Tdown convergence time per variant (Clique)",
        "clique_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=False,
    )
    _add_final_check(
        figure,
        "obs3-faster-convergence",
        "assertion and ghost-flushing converge faster than standard",
        ("standard", "assertion", "ghost-flushing"),
        lambda final: max(final["assertion"], final["ghost-flushing"])
        < final["standard"],
    )
    return figure


def figure8c(
    sizes: Sequence[int] = (29, 48, 75),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """TTL exhaustions per variant, Tdown in Internet-derived graphs."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        internet_tdown_trial,
        "ttl_exhaustions",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    return _comparison_figure(
        "fig8c",
        "Tdown TTL exhaustions per variant (Internet-derived)",
        "internet_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=True,
        ghost_flushing_improvement=0.8,
    )


def figure8d(
    sizes: Sequence[int] = (29, 48, 75),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Convergence time per variant, Tdown in Internet-derived graphs."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        internet_tdown_trial,
        "convergence_time",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig8d",
        "Tdown convergence time per variant (Internet-derived)",
        "internet_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=False,
    )
    _add_final_check(
        figure,
        "obs3-wrate-slower-ghost-flushing-faster",
        "wrate converges slower and ghost-flushing faster than standard",
        ("standard", "wrate", "ghost-flushing"),
        lambda final: final["ghost-flushing"] < final["standard"] < final["wrate"],
    )
    return figure
