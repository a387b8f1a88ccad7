"""The metrics registry: counters, gauges, and histograms for one run.

The paper's headline claims are measurements, and the ROADMAP's scaling
work needs to know *where* a sweep's work goes — so every layer of the
simulator carries instrumentation points that feed a
:class:`MetricsRegistry`.  Design constraints, in order:

1. **Zero cost when disabled.**  The registry is filled by the
   telemetry probe, an observer on the scheduler's one observation seam
   (:mod:`repro.engine.observer`); every instrumentation point guards
   with one attribute read, so a run nothing observes pays nothing but
   that read.
2. **Determinism.**  Metrics only *observe*: no metric draws randomness,
   schedules events, or reads the wall clock, so a run's event order —
   and therefore its determinism digest — is bit-identical with
   telemetry on or off.  The test suite proves this.
3. **Picklable snapshots.**  :meth:`MetricsRegistry.snapshot` reduces
   the registry to a frozen :class:`MetricsSnapshot` of plain dicts and
   tuples, so per-trial metrics ride home from ``sweep(..., jobs=N)``
   worker processes and aggregate with
   :meth:`MetricsSnapshot.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TelemetryError

#: Every histogram's bucket upper bounds (values above the last bound land
#: in the overflow bucket).  Chosen for the quantities the simulator
#: observes: byte counts, queue depths, per-prefix fan-outs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); negative increments are rejected."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value with a high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        """Record the current value, tracking the maximum ever seen."""
        self.value = value
        if value > self.high_water:
            self.high_water = value


class Histogram:
    """A fixed-bucket distribution: counts per bucket plus sum/min/max."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = DEFAULT_BUCKETS
        # One count per bound plus the overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class HistogramSnapshot:
    """A histogram reduced to immutable, picklable data."""

    bounds: Tuple[float, ...]
    bucket_counts: Tuple[int, ...]
    count: int
    total: float
    min: Optional[float]
    max: Optional[float]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots of the same histogram shape."""
        if self.bounds != other.bounds:
            raise TelemetryError(
                f"cannot merge histograms with bounds {self.bounds} "
                f"and {other.bounds}"
            )
        mins = [m for m in (self.min, other.min) if m is not None]
        maxes = [m for m in (self.max, other.max) if m is not None]
        return HistogramSnapshot(
            bounds=self.bounds,
            bucket_counts=tuple(
                a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
            ),
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(mins) if mins else None,
            max=max(maxes) if maxes else None,
        )


@dataclass(frozen=True)
class GaugeSnapshot:
    """A gauge reduced to its last value and high-water mark."""

    value: float
    high_water: float


@dataclass(frozen=True)
class MetricsSnapshot:
    """One registry frozen to plain data: picklable, mergeable, renderable.

    Produced by :meth:`MetricsRegistry.snapshot`; this is the form that
    crosses process boundaries in parallel sweeps and aggregates, per
    service job or per ``repro figure`` batch, through :meth:`aggregate`.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, GaugeSnapshot] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str, default: int = 0) -> int:
        """One counter's value (``default`` when never incremented)."""
        return self.counters.get(name, default)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    @classmethod
    def aggregate(cls, snapshots: Sequence["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Combine per-trial snapshots into sweep-level totals.

        Counters sum, gauges keep the maximum (their high-water semantics
        survive aggregation), histograms merge bucket-wise.  Metric *names*
        union, so trials that never touched a metric don't erase it.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, GaugeSnapshot] = {}
        histograms: Dict[str, HistogramSnapshot] = {}
        for snap in snapshots:
            for name in sorted(snap.counters):
                counters[name] = counters.get(name, 0) + snap.counters[name]
            for name in sorted(snap.gauges):
                incoming = snap.gauges[name]
                seen = gauges.get(name)
                if seen is None:
                    gauges[name] = incoming
                else:
                    gauges[name] = GaugeSnapshot(
                        value=max(seen.value, incoming.value),
                        high_water=max(seen.high_water, incoming.high_water),
                    )
            for name in sorted(snap.histograms):
                incoming_h = snap.histograms[name]
                seen_h = histograms.get(name)
                histograms[name] = (
                    incoming_h if seen_h is None else seen_h.merged(incoming_h)
                )
        return cls(counters=counters, gauges=gauges, histograms=histograms)

    def render(self, indent: str = "  ") -> str:
        """A sorted, aligned text table of every metric."""
        lines: List[str] = []
        names = sorted(self.counters)
        width = max((len(n) for n in names), default=0)
        for name in names:
            lines.append(f"{indent}counter   {name:<{width}} {self.counters[name]}")
        for name in sorted(self.gauges):
            g = self.gauges[name]
            lines.append(
                f"{indent}gauge     {name} value={g.value:g} "
                f"high_water={g.high_water:g}"
            )
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"{indent}histogram {name} count={h.count} mean={h.mean:.2f} "
                f"min={h.min if h.min is not None else '-'} "
                f"max={h.max if h.max is not None else '-'}"
            )
        if not lines:
            lines.append(f"{indent}(no metrics recorded)")
        return "\n".join(lines)


class MetricsRegistry:
    """Named metrics for one run; get-or-create access by name.

    Names are dotted paths (``"engine.events_executed"``,
    ``"net.messages_sent.Announcement"``).  Asking for an existing name
    with a different metric type raises :class:`TelemetryError` — a name
    is one metric forever.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    def _check_fresh(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise TelemetryError(
                    f"metric {name!r} already registered as a {other_kind}; "
                    f"cannot re-register as a {kind}"
                )

    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry to a picklable :class:`MetricsSnapshot`."""
        return MetricsSnapshot(
            counters={
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            gauges={
                name: GaugeSnapshot(value=metric.value, high_water=metric.high_water)
                for name, metric in sorted(self._gauges.items())
            },
            histograms={
                name: HistogramSnapshot(
                    bounds=metric.bounds,
                    bucket_counts=tuple(metric.bucket_counts),
                    count=metric.count,
                    total=metric.total,
                    min=metric.min,
                    max=metric.max,
                )
                for name, metric in sorted(self._histograms.items())
            },
        )
