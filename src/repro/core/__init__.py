"""The paper's primary contribution: transient-loop analysis for path-vector
routing.

* :mod:`.loop_detector` — find loops in forwarding graphs and their
  lifetimes in FIB history,
* :mod:`.convergence` — the convergence-time measurement,
* :mod:`.loop_metrics` — the §4.2 metric set per run,
* :mod:`.loop_theory` — the §3.2 analytical bounds,
* :mod:`.observations` — machine-checkable Observations 1-3.
"""

from .churn import UpdateChurn
from .convergence import ConvergenceReport, measure_convergence
from .exploration import ExplorationReport, RouteChange, RouteChangeLog
from .loop_detector import (
    LoopInterval,
    find_loops,
    is_loop_free,
    longest_loop_duration,
    loop_size_histogram,
    loop_timeline,
)
from .loop_metrics import LoopStudyResult
from .loop_stats import LoopStatistics, percentile
from .loop_theory import (
    PropagationStep,
    resolution_schedule,
    worst_case_detection_delay,
    worst_case_loop_duration,
)
from .observations import (
    ObservationCheck,
    check_duration_coupling,
    check_enhancement_ranking,
    check_linear_in_mrai,
    check_ratio_constant,
    check_tlong_gap,
    check_wrate_regression,
)

__all__ = [
    "ConvergenceReport",
    "ExplorationReport",
    "LoopInterval",
    "LoopStatistics",
    "LoopStudyResult",
    "ObservationCheck",
    "PropagationStep",
    "RouteChange",
    "RouteChangeLog",
    "UpdateChurn",
    "check_duration_coupling",
    "check_enhancement_ranking",
    "check_linear_in_mrai",
    "check_ratio_constant",
    "check_tlong_gap",
    "check_wrate_regression",
    "find_loops",
    "is_loop_free",
    "longest_loop_duration",
    "loop_size_histogram",
    "loop_timeline",
    "measure_convergence",
    "percentile",
    "resolution_schedule",
    "worst_case_detection_delay",
    "worst_case_loop_duration",
]
