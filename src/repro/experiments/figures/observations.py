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

from typing import Sequence

from ...bgp import VARIANT_NAMES
from ...core import (
    check_duration_coupling,
    check_enhancement_ranking,
    check_linear_in_mrai,
    check_ratio_constant,
)
from ..report import TableData
from ..scenarios import clique_tdown_trial, internet_tdown_trial
from .common import mrai_sweep, variant_comparison_series


def observation1(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """Looping duration tracks convergence; both are linear in M."""
    points = mrai_sweep(mrai_values, clique_tdown_trial, clique_size, seeds)
    looping = [point.metrics["looping_duration"] for point in points]
    convergence = [point.metrics["convergence_time"] for point in points]
    return TableData(
        "observation1",
        checks=[
            check_duration_coupling(looping, convergence, max_gap_fraction=0.35),
            check_linear_in_mrai(mrai_values, looping),
            check_linear_in_mrai(mrai_values, convergence),
        ],
    )


def observation2(
    mrai_values: Sequence[float] = (7.5, 15.0, 30.0, 45.0),
    clique_size: int = 10,
    seeds: Sequence[int] = (0, 1),
) -> TableData:
    """TTL exhaustions are linear in M; the looping ratio stays flat."""
    points = mrai_sweep(mrai_values, clique_tdown_trial, clique_size, seeds)
    exhaustions = [point.metrics["ttl_exhaustions"] for point in points]
    ratios = [point.metrics["looping_ratio"] for point in points]
    return TableData(
        "observation2",
        checks=[
            check_linear_in_mrai(mrai_values, exhaustions),
            check_ratio_constant(ratios),
        ],
    )


def observation3(
    internet_size: int = 48,
    mrai: float = 30.0,
    seeds: Sequence[int] = (0, 1, 2),
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
        ).items()
    }
    return TableData(
        "observation3",
        checks=check_enhancement_ranking(exhaustions),
        notes=[f"{name}: {value:.1f}" for name, value in exhaustions.items()],
    )
