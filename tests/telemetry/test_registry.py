"""Unit tests for repro.telemetry.registry."""

import pickle

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_BUCKETS,
    GaugeSnapshot,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = MetricsRegistry().counter("a.b")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("a.b")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1)


class TestGauge:
    def test_tracks_value_and_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.value == 3.0
        assert gauge.high_water == 7.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.5, 5.0, 5000.0):
            hist.observe(value)
        # <=1, <=5 and the overflow bucket past the last bound (1000).
        assert hist.bucket_counts == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert hist.count == 3
        assert hist.min == 0.5 and hist.max == 5000.0
        assert hist.mean == pytest.approx(5005.5 / 3)

    def test_empty_mean_is_zero(self):
        assert MetricsRegistry().histogram("h").mean == 0.0

    def test_default_bounds(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.bounds == DEFAULT_BUCKETS


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.histogram("x")

    def test_snapshot_is_sorted_and_frozen(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(4.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert list(snap.counters) == ["a", "b"]
        assert snap.counter("a") == 1
        assert snap.counter("missing", default=9) == 9
        assert snap.gauges["g"] == GaugeSnapshot(value=4.0, high_water=4.0)
        assert snap.histograms["h"].count == 1
        assert not snap.empty

    def test_snapshot_pickles(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestAggregate:
    def two_snapshots(self):
        first = MetricsRegistry()
        first.counter("c").inc(2)
        first.gauge("g").set(5.0)
        first.histogram("h").observe(0.5)
        second = MetricsRegistry()
        second.counter("c").inc(3)
        second.counter("only_second").inc(1)
        second.gauge("g").set(2.0)
        second.histogram("h").observe(50.0)
        return first.snapshot(), second.snapshot()

    def test_counters_sum_and_names_union(self):
        combined = MetricsSnapshot.aggregate(self.two_snapshots())
        assert combined.counter("c") == 5
        assert combined.counter("only_second") == 1

    def test_gauges_keep_maximum(self):
        combined = MetricsSnapshot.aggregate(self.two_snapshots())
        assert combined.gauges["g"] == GaugeSnapshot(value=5.0, high_water=5.0)

    def test_histograms_merge_bucketwise(self):
        combined = MetricsSnapshot.aggregate(self.two_snapshots())
        merged = combined.histograms["h"]
        assert merged.bucket_counts == (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
        assert merged.count == 2
        assert merged.min == 0.5 and merged.max == 50.0

    def test_mismatched_bounds_rejected(self):
        left = HistogramSnapshot(
            bounds=(1.0,), bucket_counts=(0, 0), count=0, total=0.0,
            min=None, max=None,
        )
        right = HistogramSnapshot(
            bounds=(2.0,), bucket_counts=(0, 0), count=0, total=0.0,
            min=None, max=None,
        )
        with pytest.raises(TelemetryError, match="cannot merge"):
            left.merged(right)

    def test_aggregate_of_nothing_is_empty(self):
        assert MetricsSnapshot.aggregate([]).empty


class TestRender:
    def test_lists_every_metric_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1.0)
        text = registry.snapshot().render()
        assert "counter   c 1" in text
        assert "gauge     g value=2 high_water=2" in text
        assert "histogram h count=1" in text

    def test_empty_snapshot_says_so(self):
        assert "(no metrics recorded)" in MetricsSnapshot().render()
