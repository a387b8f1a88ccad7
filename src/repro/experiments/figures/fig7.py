"""Figure 7: TTL exhaustions and looping ratio vs MRAI value.

Observation 2: exhaustion counts grow linearly with M while the looping
ratio stays almost constant — because M stretches both each loop's duration
*and* the convergence window that the denominator (packets sent) integrates
over.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...core import check_linear_in_mrai, check_ratio_constant
from ..config import RunSettings
from ..resilience import ResiliencePolicy
from ..report import FigureData
from ..scenarios import bclique_tlong_fixed, clique_tdown_fixed
from ..spec import factory_ref
from .common import metric_sweep_figure

_METRICS = ("ttl_exhaustions", "looping_ratio")


def _with_obs2_checks(figure: FigureData) -> FigureData:
    figure.checks.append(
        check_linear_in_mrai(figure.xs, figure.series["ttl_exhaustions"])
    )
    figure.checks.append(check_ratio_constant(figure.series["looping_ratio"]))
    return figure


def figure7a(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0, 60.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Tdown in a Clique: linear exhaustions, flat ratio."""
    figure, _points = metric_sweep_figure(
        "fig7a",
        f"Tdown TTL exhaustions / looping ratio vs MRAI (Clique-{clique_size})",
        "mrai",
        list(mrai_values),
        factory_ref(clique_tdown_fixed, size=clique_size),
        _METRICS,
        seeds=seeds,
        settings=settings,
        mrai_is_x=True,
        jobs=jobs,
        policy=policy,
    )
    return _with_obs2_checks(figure)


def figure7b(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0, 60.0),
    bclique_size: int = 8,
    seeds: Sequence[int] = (0, 1),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> FigureData:
    """Tlong in a B-Clique: linear exhaustions, flat ratio."""
    figure, _points = metric_sweep_figure(
        "fig7b",
        f"Tlong TTL exhaustions / looping ratio vs MRAI (B-Clique-{bclique_size})",
        "mrai",
        list(mrai_values),
        factory_ref(bclique_tlong_fixed, size=bclique_size),
        _METRICS,
        seeds=seeds,
        settings=settings,
        mrai_is_x=True,
        jobs=jobs,
        policy=policy,
    )
    return _with_obs2_checks(figure)
