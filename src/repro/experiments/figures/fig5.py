"""Figure 5: looping duration and convergence time vs MRAI value.

Both metrics are linearly proportional to the MRAI timer value M (the
paper's Observation 1, and for convergence time the Griffin-Premore result
it confirms).  Panel (a) sweeps M for Tdown in a Clique, panel (b) for Tlong
in a B-Clique.
"""

from __future__ import annotations

from typing import Sequence

from ...core import check_linear_in_mrai
from ..report import FigureData
from ..scenarios import bclique_tlong_trial, clique_tdown_trial
from .common import metric_sweep_figure

_METRICS = ("looping_duration", "convergence_time")


def _with_linearity_checks(figure: FigureData) -> FigureData:
    for metric in _METRICS:
        check = check_linear_in_mrai(figure.xs, figure.series[metric])
        figure.checks.append(
            type(check)(
                name=f"obs1-{metric}-linear-in-mrai",
                holds=check.holds,
                detail=check.detail,
            )
        )
    return figure


def figure5a(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0, 60.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tdown in a Clique: both curves scale linearly with M."""
    figure = metric_sweep_figure(
        "fig5a",
        f"Tdown metrics vs MRAI (Clique-{clique_size})",
        "mrai",
        list(mrai_values),
        clique_tdown_trial,
        _METRICS,
        seeds=seeds,
        size=clique_size,
    )
    return _with_linearity_checks(figure)


def figure5b(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0, 60.0),
    bclique_size: int = 8,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tlong in a B-Clique: both curves scale linearly with M."""
    figure = metric_sweep_figure(
        "fig5b",
        f"Tlong metrics vs MRAI (B-Clique-{bclique_size})",
        "mrai",
        list(mrai_values),
        bclique_tlong_trial,
        _METRICS,
        seeds=seeds,
        size=bclique_size,
    )
    return _with_linearity_checks(figure)
