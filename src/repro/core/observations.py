"""Machine-checkable versions of the paper's three Observations.

Each function turns one qualitative claim from §4-§5 into a quantitative
check over experiment results, so the benchmark harness can print not just
the figures' series but also whether the reproduced data *exhibits the same
shape* the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import AnalysisError
from ..util.stats import coefficient_of_variation, linear_fit, mean


@dataclass(frozen=True)
class ObservationCheck:
    """Outcome of checking one observation against measured data."""

    name: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        verdict = "HOLDS" if self.holds else "VIOLATED"
        return f"{self.name}: {verdict} — {self.detail}"


# ----------------------------------------------------------------------
# Observation 1: "The overall looping duration is closely coupled with the
# convergence time and the overall looping duration is linearly proportional
# to the MRAI value."
# ----------------------------------------------------------------------


def check_duration_coupling(
    looping_durations: Sequence[float],
    convergence_times: Sequence[float],
    max_gap_fraction: float = 0.5,
) -> ObservationCheck:
    """Looping duration tracks convergence time (within a fraction of it).

    The paper's Figure 4 gap is "a few seconds" for Tdown and "30 to 45
    seconds" (≈ one MRAI round) for Tlong, both well under half the
    convergence time for non-trivial topologies.
    """
    if len(looping_durations) != len(convergence_times):
        raise AnalysisError("series lengths differ")
    gaps = []
    for loop_d, conv_t in zip(looping_durations, convergence_times):
        if conv_t <= 0:
            continue
        gaps.append((conv_t - loop_d) / conv_t)
    if not gaps:
        return ObservationCheck(
            "obs1-coupling", False, "no runs with positive convergence time"
        )
    worst = max(gaps)
    return ObservationCheck(
        "obs1-coupling",
        worst <= max_gap_fraction,
        f"worst relative gap {worst:.2f} (threshold {max_gap_fraction})",
    )


#: The Tlong gap may be at most this many MRAI rounds.
_TLONG_GAP_MAX_ROUNDS = 2.0


def check_tlong_gap(
    looping_durations: Sequence[float],
    convergence_times: Sequence[float],
    mrai: float,
) -> ObservationCheck:
    """The Tlong gap is positive and about one MRAI round (Figure 4b).

    "The overall looping duration in Tlong is typically 30 to 45 seconds
    shorter than the convergence time" (with M = 30): after the last loop
    resolves, the final — MRAI-held — update still has to go out.  The gap
    is therefore an *absolute* quantity of order M, checked here as
    ``0 < gap <= 2 × M`` at every sweep point.
    """
    if len(looping_durations) != len(convergence_times):
        raise AnalysisError("series lengths differ")
    gaps = [c - l for l, c in zip(looping_durations, convergence_times)]
    bad = [
        (index, gap)
        for index, gap in enumerate(gaps)
        if not 0 < gap <= _TLONG_GAP_MAX_ROUNDS * mrai
    ]
    return ObservationCheck(
        "tlong-gap-one-mrai-round",
        not bad,
        f"gaps {['%.1f' % g for g in gaps]} vs bound "
        f"{_TLONG_GAP_MAX_ROUNDS * mrai:.1f}"
        + (f"; out of band at indices {[i for i, _ in bad]}" if bad else ""),
    )


#: The least R² of a fit that counts as linear.
_LINEAR_MIN_R_SQUARED = 0.9


def check_linear_in_mrai(
    mrai_values: Sequence[float],
    metric_values: Sequence[float],
) -> ObservationCheck:
    """A metric grows linearly with MRAI (Observations 1 and 2)."""
    fit = linear_fit(list(mrai_values), list(metric_values))
    holds = fit.r_squared >= _LINEAR_MIN_R_SQUARED and fit.slope > 0
    return ObservationCheck(
        "linear-in-mrai",
        holds,
        f"slope {fit.slope:.3f}, R² {fit.r_squared:.3f} "
        f"(need R² >= {_LINEAR_MIN_R_SQUARED} and positive slope)",
    )


# ----------------------------------------------------------------------
# Observation 2: "...the number of TTL exhaustions is linearly proportional
# to the MRAI timer value, while the packet looping ratio stays almost
# constant."
# ----------------------------------------------------------------------


def check_ratio_constant(
    looping_ratios: Sequence[float],
    max_cv: float = 0.25,
) -> ObservationCheck:
    """The looping ratio is "almost constant" across the MRAI sweep."""
    if not looping_ratios:
        raise AnalysisError("no looping ratios supplied")
    cv = coefficient_of_variation(list(looping_ratios))
    return ObservationCheck(
        "obs2-ratio-constant",
        cv <= max_cv,
        f"mean ratio {mean(list(looping_ratios)):.2f}, "
        f"coefficient of variation {cv:.3f} (threshold {max_cv})",
    )


# ----------------------------------------------------------------------
# Observation 3: "Both Assertion and Ghost Flushing are effective in
# speeding up route convergence and reducing transient loops, while SSLD and
# WRATE are not."
# ----------------------------------------------------------------------


#: Assertion's least gain over standard; its magnitude "depends on the
#: details of topology".
_ASSERTION_IMPROVEMENT = 0.1
#: How far SSLD may fall behind standard and still count as not regressing.
_SSLD_TOLERANCE = 0.05


def check_enhancement_ranking(
    metric_by_variant: Dict[str, float],
    ghost_flushing_improvement: float = 0.5,
) -> List[ObservationCheck]:
    """Observation 3's claims against a {variant: metric} map.

    ``metric_by_variant`` must contain all five §5 names; lower is better
    (TTL exhaustions or convergence time).  Returns one check per claim:

    * Ghost Flushing improves on standard by >= ``ghost_flushing_improvement``
      (the paper reports >= 80% looping reduction at scale),
    * Assertion *consistently* improves (by >= 10%; its magnitude "depends
      on the details of topology" and is much less pronounced on
      Internet-derived graphs),
    * SSLD does not *worsen* standard by more than 5% (its gain is allowed
      to be modest).
    """
    required = {"standard", "ssld", "wrate", "assertion", "ghost-flushing"}
    missing = required - set(metric_by_variant)
    if missing:
        raise AnalysisError(f"missing variants: {sorted(missing)}")
    base = metric_by_variant["standard"]
    if base <= 0:
        return [
            ObservationCheck(
                "obs3", False, "standard BGP shows no looping; nothing to compare"
            )
        ]

    def improvement(name: str) -> float:
        return (base - metric_by_variant[name]) / base

    checks = []
    for name, threshold in (
        ("assertion", _ASSERTION_IMPROVEMENT),
        ("ghost-flushing", ghost_flushing_improvement),
    ):
        gain = improvement(name)
        checks.append(
            ObservationCheck(
                f"obs3-{name}-effective",
                gain >= threshold,
                f"{name} improves standard by {gain:+.0%} "
                f"(need >= {threshold:.0%})",
            )
        )
    ssld_gain = improvement("ssld")
    checks.append(
        ObservationCheck(
            "obs3-ssld-modest",
            ssld_gain >= -_SSLD_TOLERANCE,
            f"ssld changes standard by {ssld_gain:+.0%} (must not regress)",
        )
    )
    return checks


#: The paper's least WRATE regression on Internet-like Tlong.
_WRATE_MIN_REGRESSION = 0.2


def check_wrate_regression(
    standard_metric: float,
    wrate_metric: float,
) -> ObservationCheck:
    """WRATE worsens looping on Internet-like Tlong (by >= 20% in the paper)."""
    if standard_metric <= 0:
        return ObservationCheck(
            "obs3-wrate-regression", False, "standard shows no looping to regress"
        )
    change = (wrate_metric - standard_metric) / standard_metric
    return ObservationCheck(
        "obs3-wrate-regression",
        change >= _WRATE_MIN_REGRESSION,
        f"wrate changes looping by {change:+.0%} "
        f"(paper: >= +{_WRATE_MIN_REGRESSION:.0%})",
    )
