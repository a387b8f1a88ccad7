"""Small statistics helpers (dependency-free).

The paper's observations are statements about trends — "linearly proportional
to the MRAI value", "stays almost constant" — so the toolkit here is summary
statistics plus ordinary least squares with an R² goodness measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import AnalysisError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise AnalysisError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def median(values: Sequence[float]) -> float:
    """Median; raises on empty input."""
    if not values:
        raise AnalysisError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stdev / mean — the "almost constant" test of Observation 2.

    Returns 0.0 when the mean is 0 (all values are then 0 too, or the
    question is ill-posed and 0 is the conservative answer).
    """
    mu = mean(values)
    if mu == 0:
        return 0.0
    return stdev(values) / abs(mu)


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares ``y ≈ slope · x + intercept``."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line through ``(xs, ys)``.

    Raises :class:`AnalysisError` for fewer than two points or zero variance
    in ``xs``.  A constant ``ys`` yields slope 0 with R² = 1 (the line fits
    perfectly).
    """
    if len(xs) != len(ys):
        raise AnalysisError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise AnalysisError("need at least two points for a linear fit")
    x_mean, y_mean = mean(list(xs)), mean(list(ys))
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0:
        raise AnalysisError("xs have zero variance; slope is undefined")
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    ss_total = sum((y - y_mean) ** 2 for y in ys)
    if ss_total == 0:
        return LinearFit(slope=slope, intercept=intercept, r_squared=1.0)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return LinearFit(slope=slope, intercept=intercept, r_squared=1 - ss_res / ss_total)


@dataclass(frozen=True)
class Summary:
    """Mean ± stdev over repeated trials, with extremes."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.2f} ±{self.stdev:.2f} (n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics for a non-empty sequence."""
    if not values:
        raise AnalysisError("cannot summarize empty sequence")
    return Summary(
        count=len(values),
        mean=mean(values),
        stdev=stdev(values),
        minimum=min(values),
        maximum=max(values),
    )
