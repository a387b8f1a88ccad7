"""Shared machinery for the per-figure drivers.

Every figure in §4-§5 is one of two shapes:

* **metric sweep** — x-axis sweep of one scenario family, several metrics
  plotted (Figures 4-7): :func:`metric_sweep_figure`;
* **variant comparison** — the same sweep repeated for each of the five
  protocol variants, one metric plotted (Figures 8-9):
  :func:`variant_comparison_series`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...bgp import BgpConfig, variant
from ..config import RunSettings
from ..report import FigureData
from ..sweep import (
    PointSummary,
    ScenarioFactory,
    TrialTask,
    run_trials,
    summarize_points,
)


def metric_sweep_figure(
    figure_id: str,
    title: str,
    x_label: str,
    xs: Sequence[float],
    make_scenario: ScenarioFactory,
    metrics: Sequence[str],
    mrai: float = 30.0,
    seeds: Sequence[int] = (0,),
    settings: RunSettings = RunSettings(),
    size: Optional[int] = None,
) -> FigureData:
    """Run one sweep and package the requested metric series as a figure.

    ``metrics`` are :meth:`~repro.core.loop_metrics.LoopStudyResult.summary_row`
    keys.  The ``traffic_*`` keys exist only on runs with
    ``settings.traffic_matrix``; asking a single-prefix sweep for one is a
    ``KeyError``, by design.  A failed trial raises (:func:`run_trials`).

    With ``size`` the x values are MRAI settings over the one topology
    ``make_scenario(size, seed)`` (Figures 5 and 7, see
    :func:`mrai_sweep`, which runs the default :class:`RunSettings`);
    otherwise the MRAI is fixed at ``mrai`` and x parameterizes the
    scenario (topology size, Figures 4 and 6).
    """
    if size is None:
        config = BgpConfig.standard(mrai)
        points = summarize_points(
            xs,
            run_trials(
                [
                    TrialTask(x, seed, make_scenario, config, settings)
                    for x in xs
                    for seed in seeds
                ]
            ),
        )
    else:
        points = mrai_sweep(xs, make_scenario, size, seeds)
    return FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        xs=list(xs),
        series={name: [point.metrics[name] for point in points] for name in metrics},
    )


def mrai_sweep(
    mrai_values: Sequence[float],
    make_scenario: ScenarioFactory,
    size: int,
    seeds: Sequence[int],
) -> List[PointSummary]:
    """One point per MRAI value: ``make_scenario(size, seed)`` under the
    standard config with that MRAI.  Trials are keyed by size, as in the
    size sweeps, so the two share equal trials; a failed trial raises.
    """
    runs = run_trials(
        [
            TrialTask(size, seed, make_scenario, BgpConfig.standard(mrai))
            for mrai in mrai_values
            for seed in seeds
        ]
    )
    return summarize_points(mrai_values, runs)


def variant_comparison_series(
    xs: Sequence[float],
    make_scenario: ScenarioFactory,
    metric: str,
    variant_names: Sequence[str],
    mrai: float = 30.0,
    seeds: Sequence[int] = (0,),
) -> Dict[str, List[float]]:
    """One metric's sweep series per protocol variant.

    Returns ``{variant_name: [metric at each x]}`` with every variant run on
    identical scenarios and seeds, making the comparison paired.  A failed
    trial raises (:func:`run_trials`).
    """
    result: Dict[str, List[float]] = {}
    for name in variant_names:
        config = variant(name, mrai=mrai)
        runs = run_trials(
            [TrialTask(x, seed, make_scenario, config) for x in xs for seed in seeds]
        )
        result[name] = [point.metrics[metric] for point in summarize_points(xs, runs)]
    return result


def in_groups(items: Sequence, size: int) -> List[Sequence]:
    """``items`` cut into consecutive groups of ``size`` — a driver's runs
    regrouped per x, when it asked for ``len(xs) × size`` trials at once."""
    return [items[start : start + size] for start in range(0, len(items), size)]


def normalize_to(
    baseline: Sequence[float], others: Dict[str, List[float]]
) -> Dict[str, List[float]]:
    """Normalize each series pointwise by ``baseline`` (paper Figs 8a/9a).

    A zero baseline point normalizes to 1.0 when the other series is also
    zero there (both loop-free — parity), else to ``inf``.
    """
    normalized: Dict[str, List[float]] = {}
    for name, values in others.items():
        row = []
        for base_value, value in zip(baseline, values):
            if base_value == 0:
                row.append(1.0 if value == 0 else float("inf"))
            else:
                row.append(value / base_value)
        normalized[name] = row
    return normalized
