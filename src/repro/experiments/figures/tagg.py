"""Tagg: traffic-weighted looping under prefix aggregation events.

Not a figure from the paper — the paper's experiments are single-prefix —
but the natural multi-prefix extension of its methodology: sweep the size
of a prefix population over a fixed clique, drive every origin through an
aggregate/deaggregate cycle (:class:`~repro.bgp.aggregation.AggregateBlock`),
and measure the *traffic-weighted* looping ratio — the fraction of offered
traffic (a seeded CBR matrix per (source, prefix)) that loops or blackholes
per epoch under longest-prefix-match forwarding.

The per-prefix metrics (``looping_ratio`` etc.) still describe the focus
prefix, so the figure shows both: how the legacy single-prefix view relates
to the table-wide traffic view as the population grows.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..config import RunSettings
from ..report import FigureData
from ..scenarios import clique_tagg_trial
from .common import metric_sweep_figure

_METRICS = (
    "traffic_looped_fraction",
    "traffic_blackholed_fraction",
    "looping_ratio",
)


def figure_tagg(
    prefix_counts: Sequence[int] = (16, 64, 256),
    clique_size: int = 6,
    origins: int = 2,
    hold: float = 30.0,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0,),
) -> FigureData:
    """Traffic-weighted loop metrics vs prefix-population size (Tagg).

    Runs with ``traffic_matrix`` on: the traffic series cannot be measured
    without it.
    """
    return metric_sweep_figure(
        "tagg",
        "Traffic-weighted looping vs prefix population (Tagg, clique)",
        "prefix_count",
        [int(x) for x in prefix_counts],
        partial(clique_tagg_trial, size=clique_size, origins=origins, hold=hold),
        _METRICS,
        mrai=mrai,
        seeds=seeds,
        settings=RunSettings(traffic_matrix=True),
    )
