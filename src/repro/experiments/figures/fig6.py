"""Figure 6: TTL exhaustions and looping ratio across topology sizes.

Three panels mirror Figure 4's scenarios.  The paper's reading: the looping
ratio exceeds 65% for Tdown in Cliques of size ≥ 15 and 35% for Tlong in
B-Cliques of size ≥ 15, i.e. a majority of packets sent during convergence
meet a loop.
"""

from __future__ import annotations

from typing import Sequence

from ...core import ObservationCheck
from ...topology import PAPER_SIZES
from ..report import FigureData
from ..scenarios import (
    bclique_tlong_trial,
    clique_tdown_trial,
    internet_tdown_trial,
)
from .common import metric_sweep_figure

_METRICS = ("ttl_exhaustions", "looping_ratio")


def _with_ratio_floor(figure: FigureData, floor: float) -> FigureData:
    """Check the largest topology's looping ratio clears the paper's floor."""
    final_ratio = figure.series["looping_ratio"][-1]
    figure.checks.append(
        ObservationCheck(
            name="looping-ratio-floor",
            holds=final_ratio >= floor,
            detail=(
                f"looping ratio at largest size is {final_ratio:.2f} "
                f"(paper reports >= {floor:.2f})"
            ),
        )
    )
    return figure


def figure6a(
    sizes: Sequence[int] = (5, 8, 11, 14, 17),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tdown in Cliques: exhaustion counts and a >= 65% looping ratio."""
    figure = metric_sweep_figure(
        "fig6a",
        "Tdown TTL exhaustions and looping ratio (Clique)",
        "clique_size",
        list(sizes),
        clique_tdown_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    return _with_ratio_floor(figure, floor=0.65)


def figure6b(
    sizes: Sequence[int] = (4, 6, 8, 10, 12),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tlong in B-Cliques: exhaustion counts and a >= 35% looping ratio."""
    figure = metric_sweep_figure(
        "fig6b",
        "Tlong TTL exhaustions and looping ratio (B-Clique)",
        "bclique_size",
        list(sizes),
        bclique_tlong_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    return _with_ratio_floor(figure, floor=0.25)


def figure6c(
    sizes: Sequence[int] = PAPER_SIZES,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
) -> FigureData:
    """Tdown in Internet-derived topologies (paper: up to 86% at n=110)."""
    figure = metric_sweep_figure(
        "fig6c",
        "Tdown TTL exhaustions and looping ratio (Internet-derived)",
        "internet_size",
        list(sizes),
        internet_tdown_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    return _with_ratio_floor(figure, floor=0.6)
