"""``repro.telemetry`` — simulation-wide metrics, timelines, and profiling.

Three layers with a strict determinism boundary:

* :mod:`~repro.telemetry.registry` — counters, gauges, histograms, and
  their frozen picklable snapshots; pure observation, no clocks.
* :mod:`~repro.telemetry.timeline` + :mod:`~repro.telemetry.probe` —
  simulation-time instants/spans and the observer the simulator layers
  call through the scheduler's one observation seam; still purely
  deterministic.
* :mod:`~repro.telemetry.profiler` — wall-clock phase timing for the
  *harness* side only (the one lint-sanctioned wall-clock module).
"""

from .probe import TelemetryProbe, estimate_wire_size
from .profiler import PhaseProfiler, PhaseTiming, Stopwatch, time_callable, wall_time
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    GaugeSnapshot,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from .timeline import (
    GLOBAL_TRACK,
    Timeline,
    TimelineRecord,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "GLOBAL_TRACK",
    "Gauge",
    "GaugeSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PhaseProfiler",
    "PhaseTiming",
    "Stopwatch",
    "TelemetryProbe",
    "Timeline",
    "TimelineRecord",
    "estimate_wire_size",
    "time_callable",
    "validate_chrome_trace",
    "wall_time",
]
