"""Figure 4: overall looping duration vs convergence time across sizes.

Three panels: (a) Tdown in Cliques, (b) Tlong in B-Cliques, (c) Tdown in
Internet-derived topologies.  The paper's reading: looping persists through
(almost) the entire convergence period — the two curves nearly coincide for
Tdown, and differ by roughly one MRAI round (30-45 s) for Tlong.
"""

from __future__ import annotations

from typing import Sequence

from ...core import ObservationCheck, check_duration_coupling
from ...core.observations import check_tlong_gap
from ...topology import PAPER_SIZES
from ..report import FigureData
from ..scenarios import (
    bclique_tlong_trial,
    clique_tdown_trial,
    internet_tdown_trial,
)
from .common import metric_sweep_figure

_METRICS = ("looping_duration", "convergence_time")


def _add_coupling_check(figure: FigureData, max_gap_fraction: float) -> None:
    figure.checks.append(
        check_duration_coupling(
            figure.series["looping_duration"],
            figure.series["convergence_time"],
            max_gap_fraction=max_gap_fraction,
        )
    )


def figure4a(
    sizes: Sequence[int] = (5, 8, 11, 14, 17),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tdown in Clique topologies: looping duration ≈ convergence time."""
    figure = metric_sweep_figure(
        "fig4a",
        "Tdown looping duration vs convergence time (Clique)",
        "clique_size",
        list(sizes),
        clique_tdown_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    _add_coupling_check(figure, max_gap_fraction=0.35)
    shortest = min(figure.series["convergence_time"])
    figure.checks.append(
        ObservationCheck(
            "convergence-positive",
            shortest > 0,
            f"shortest convergence {shortest:.2f} s",
        )
    )
    return figure


def figure4b(
    sizes: Sequence[int] = (4, 6, 8, 10, 12),
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> FigureData:
    """Tlong in B-Clique topologies: gap ≈ one MRAI round (30-45 s)."""
    figure = metric_sweep_figure(
        "fig4b",
        "Tlong looping duration vs convergence time (B-Clique)",
        "bclique_size",
        list(sizes),
        bclique_tlong_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    figure.checks.append(
        check_tlong_gap(
            figure.series["looping_duration"],
            figure.series["convergence_time"],
            mrai=mrai,
        )
    )
    return figure


def figure4c(
    sizes: Sequence[int] = PAPER_SIZES,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
) -> FigureData:
    """Tdown in Internet-derived topologies (paper sizes 29/48/75/110)."""
    figure = metric_sweep_figure(
        "fig4c",
        "Tdown looping duration vs convergence time (Internet-derived)",
        "internet_size",
        list(sizes),
        internet_tdown_trial,
        _METRICS,
        mrai=mrai,
        seeds=seeds,
    )
    _add_coupling_check(figure, max_gap_fraction=0.6)
    conv = figure.series["convergence_time"]
    figure.checks.append(
        ObservationCheck(
            "convergence-grows-with-size",
            conv[-1] > conv[0],
            f"{conv[0]:.2f} s at the smallest size, {conv[-1]:.2f} s at the "
            f"largest (paper: 527 s at n=110)",
        )
    )
    return figure
