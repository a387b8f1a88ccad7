"""The paper's Observations 1-3, checked directly on fresh sweeps.

Where the per-figure drivers regenerate the plots, these report one verdict
line per claim and nothing else:

1. looping duration is coupled to convergence time, and both grow linearly
   with the MRAI value;
2. TTL exhaustions grow linearly with M while the looping ratio stays
   almost constant;
3. Assertion and Ghost Flushing are effective, SSLD does not regress
   (Internet-derived Tdown).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...bgp import VARIANT_NAMES
from ...core import (
    check_duration_coupling,
    check_enhancement_ranking,
    check_linear_in_mrai,
    check_ratio_constant,
)
from ..report import TableData
from ..resilience import ResiliencePolicy
from ..scenarios import internet_tdown_trial
from ..sweep import series, xs_of
from .common import clique_mrai_sweep, variant_comparison_series


def observation1(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> TableData:
    """Looping duration tracks convergence; both are linear in M."""
    points = clique_mrai_sweep(mrai_values, clique_size, seeds, jobs, policy)
    return TableData(
        "observation1",
        checks=[
            check_duration_coupling(
                series(points, "looping_duration"),
                series(points, "convergence_time"),
                max_gap_fraction=0.35,
            ),
            check_linear_in_mrai(xs_of(points), series(points, "looping_duration")),
            check_linear_in_mrai(xs_of(points), series(points, "convergence_time")),
        ],
    )


def observation2(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> TableData:
    """TTL exhaustions are linear in M; the looping ratio stays flat."""
    points = clique_mrai_sweep(mrai_values, clique_size, seeds, jobs, policy)
    return TableData(
        "observation2",
        checks=[
            check_linear_in_mrai(xs_of(points), series(points, "ttl_exhaustions")),
            check_ratio_constant(series(points, "looping_ratio")),
        ],
    )


def observation3(
    internet_size: int = 48,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
    policy: Optional[ResiliencePolicy] = None,
) -> TableData:
    """The enhancement ranking on Internet-derived Tdown (seed-mean TTL
    exhaustions per variant, listed under the verdicts)."""
    exhaustions = {
        name: values[0]
        for name, values in variant_comparison_series(
            [float(internet_size)],
            internet_tdown_trial,
            "ttl_exhaustions",
            VARIANT_NAMES,
            mrai=mrai,
            seeds=seeds,
            jobs=jobs,
            policy=policy,
        ).items()
    }
    return TableData(
        "observation3",
        checks=check_enhancement_ranking(exhaustions),
        notes=[f"{name}: {value:.1f}" for name, value in exhaustions.items()],
    )
