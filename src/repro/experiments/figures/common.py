"""Shared machinery for the per-figure drivers.

Every figure in §4-§5 is one of two shapes:

* **metric sweep** — x-axis sweep of one scenario family, several metrics
  plotted (Figures 4-7): :func:`metric_sweep_figure`;
* **variant comparison** — the same sweep repeated for each of the five
  protocol variants, one metric plotted (Figures 8-9):
  :func:`variant_comparison_series`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...bgp import BgpConfig, variant
from ..config import RunSettings
from ..report import FigureData
from ..resilience import ResiliencePolicy
from ..scenarios import clique_tdown_fixed
from ..spec import constant_config, factory_ref, mrai_config
from ..sweep import ScenarioFactory, SweepPoint, series, sweep, xs_of


def aggregate_telemetry(points: Sequence[SweepPoint]):
    """One sweep-wide :class:`~repro.telemetry.registry.MetricsSnapshot`
    combining every point's per-trial snapshots."""
    from ...telemetry import MetricsSnapshot

    return MetricsSnapshot.aggregate([point.telemetry() for point in points])


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
    config: Optional[BgpConfig] = None,
    mrai_is_x: bool = False,
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> Tuple[FigureData, List[SweepPoint]]:
    """Run one sweep and package the requested metric series as a figure.

    ``metrics`` are :meth:`~repro.core.loop_metrics.LoopStudyResult.summary_row`
    keys.  The ``traffic_*`` keys exist only on runs with
    ``settings.traffic_matrix``; asking a single-prefix sweep for one is a
    ``KeyError``, by design.

    ``mrai_is_x`` makes the x value the MRAI setting (Figures 5 and 7);
    otherwise the MRAI is fixed at ``mrai`` and x parameterizes the scenario
    (topology size, Figures 4 and 6).  ``jobs`` fans trials out to worker
    processes (see :func:`~repro.experiments.sweep.sweep`); the config
    factories here are :class:`~repro.experiments.spec.FactoryRef`\\ s, so
    any driver whose scenario factory is module-level parallelizes for free.
    ``policy`` adds resilient execution (worker supervision, per-trial
    timeouts, retry with backoff) for long parallel figure runs.
    """
    base = config or BgpConfig.standard(mrai)
    if mrai_is_x:
        make_config = factory_ref(mrai_config, base=base)
    else:
        make_config = factory_ref(constant_config, config=base)

    points = sweep(
        xs,
        make_scenario,
        make_config,
        seeds=seeds,
        settings=settings,
        jobs=jobs,
        policy=policy,
    )
    figure = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        xs=xs_of(points),
        series={name: series(points, name) for name in metrics},
        telemetry=aggregate_telemetry(points) if settings.telemetry else None,
    )
    return figure, points


def clique_mrai_sweep(
    mrai_values: Sequence[float],
    clique_size: int,
    seeds: Sequence[int],
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> List[SweepPoint]:
    """Standard BGP on one clique's Tdown at every MRAI value (the sweep
    behind Observations 1-2 and the MRAI optimum)."""
    return sweep(
        list(mrai_values),
        factory_ref(clique_tdown_fixed, size=clique_size),
        factory_ref(mrai_config, base=BgpConfig.standard()),
        seeds=seeds,
        jobs=jobs,
        policy=policy,
    )


def variant_comparison_series(
    xs: Sequence[float],
    make_scenario: ScenarioFactory,
    metric: str,
    variant_names: Sequence[str],
    mrai: float = 30.0,
    seeds: Sequence[int] = (0,),
    settings: RunSettings = RunSettings(),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> Dict[str, List[float]]:
    """One metric's sweep series per protocol variant.

    Returns ``{variant_name: [metric at each x]}`` with every variant run on
    identical scenarios and seeds, making the comparison paired.  ``jobs``
    parallelizes the trials within each variant's sweep; ``policy`` runs
    them resiliently (see :func:`~repro.experiments.sweep.sweep`).
    """
    result: Dict[str, List[float]] = {}
    for name in variant_names:
        config = variant(name, mrai=mrai)
        points = sweep(
            xs,
            make_scenario,
            factory_ref(constant_config, config=config),
            seeds=seeds,
            settings=settings,
            jobs=jobs,
            policy=policy,
        )
        result[name] = series(points, metric)
    return result


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
