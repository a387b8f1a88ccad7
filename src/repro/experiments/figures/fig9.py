"""Figure 9: the four convergence enhancements under Tlong.

Four panels: (a) TTL exhaustions normalized by standard BGP in B-Cliques,
(b) convergence time in B-Cliques, (c) TTL exhaustions and (d) convergence
time in Internet-derived topologies.  The headline result is WRATE's
regression: on Internet-derived Tlong it makes packet looping an order of
magnitude worse than standard BGP, because rate-limited withdrawals are
exactly the messages that would have broken loops.  Our synthetic AS graphs
do not show it: ``obs3-wrate-regression`` fails at the committed
parameters, and the claims table lists it as EXPERIMENTS.md's known
divergence 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...bgp import VARIANT_NAMES
from ...core import check_wrate_regression
from ..config import RunSettings
from ..resilience import ResiliencePolicy
from ..report import FigureData
from ..scenarios import bclique_tlong_trial, internet_tlong_trial
from .common import variant_comparison_series
from .fig8 import _add_final_check, _comparison_figure


def figure9a(
    sizes: Sequence[int] = (4, 6, 8, 10),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """TTL exhaustions normalized by standard BGP, Tlong in B-Cliques."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        bclique_tlong_trial,
        "ttl_exhaustions",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig9a",
        "Tlong TTL exhaustions normalized by standard BGP (B-Clique)",
        "bclique_size",
        list(sizes),
        raw,
        normalized=True,
        add_ranking_check=False,
    )
    _add_final_check(
        figure,
        "obs3-assertion-ghost-flushing-halve-looping",
        "assertion and ghost-flushing loop under half as much as standard",
        ("assertion", "ghost-flushing"),
        lambda final: max(final["assertion"], final["ghost-flushing"]) < 0.5,
    )
    return figure


def figure9b(
    sizes: Sequence[int] = (4, 6, 8, 10),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Convergence time per variant, Tlong in B-Cliques."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        bclique_tlong_trial,
        "convergence_time",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig9b",
        "Tlong convergence time per variant (B-Clique)",
        "bclique_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=False,
    )
    _add_final_check(
        figure,
        "obs3-wrate-slightly-slower",
        "wrate converges no more than 5% faster than standard",
        ("standard", "wrate"),
        lambda final: final["wrate"] >= 0.95 * final["standard"],
    )
    return figure


def figure9c(
    sizes: Sequence[int] = (29, 48, 75),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2, 3),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """TTL exhaustions per variant, Tlong on Internet-derived graphs.

    Includes the WRATE-regression check: WRATE should show at least 20%
    more looping than standard at the largest size (the paper reports an
    order of magnitude).
    """
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        internet_tlong_trial,
        "ttl_exhaustions",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig9c",
        "Tlong TTL exhaustions per variant (Internet-derived)",
        "internet_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=False,
    )
    figure.checks.append(
        check_wrate_regression(raw["standard"][-1], raw["wrate"][-1])
    )
    _add_final_check(
        figure,
        "obs3-ghost-flushing-cuts-looping",
        "ghost-flushing loops less than standard",
        ("standard", "ghost-flushing"),
        lambda final: final["ghost-flushing"] < final["standard"],
    )
    return figure


def figure9d(
    sizes: Sequence[int] = (29, 48, 75),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2, 3),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Convergence time per variant, Tlong on Internet-derived graphs."""
    raw = variant_comparison_series(
        [float(s) for s in sizes],
        internet_tlong_trial,
        "convergence_time",
        VARIANT_NAMES,
        mrai=mrai,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = _comparison_figure(
        "fig9d",
        "Tlong convergence time per variant (Internet-derived)",
        "internet_size",
        list(sizes),
        raw,
        normalized=False,
        add_ranking_check=False,
    )
    _add_final_check(
        figure,
        "obs3-wrate-slower",
        "wrate converges slower than standard",
        ("standard", "wrate"),
        lambda final: final["wrate"] > final["standard"],
    )
    return figure
