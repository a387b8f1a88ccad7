"""Unit tests for CBR traffic arithmetic."""

import pytest

from repro.dataplane import CbrSource, sources_for
from repro.errors import ConfigError


class TestCbrSource:
    def test_departure_times(self):
        src = CbrSource(node=1, rate=10.0, start=2.0)
        assert src.departure_time(0) == 2.0
        assert src.departure_time(5) == pytest.approx(2.5)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            CbrSource(node=1, rate=0.0)

    def test_negative_index(self):
        with pytest.raises(ConfigError):
            CbrSource(node=1).departure_time(-1)


class TestCounting:
    def test_count_in_simple_window(self):
        src = CbrSource(node=1, rate=10.0, start=0.0)
        assert src.count_in(0.0, 1.0) == 10

    def test_window_is_half_open(self):
        src = CbrSource(node=1, rate=10.0, start=0.0)
        # Packet at exactly t=1.0 belongs to the NEXT window.
        assert src.count_in(0.0, 1.0) + src.count_in(1.0, 2.0) == src.count_in(0.0, 2.0)

    def test_count_before_start(self):
        src = CbrSource(node=1, rate=10.0, start=5.0)
        assert src.count_in(0.0, 5.0) == 0
        assert src.count_in(0.0, 5.1) == 1

    def test_empty_window(self):
        src = CbrSource(node=1, rate=10.0)
        assert src.count_in(3.0, 3.0) == 0
        assert src.count_in(3.0, 2.0) == 0

    def test_count_matches_times(self):
        src = CbrSource(node=1, rate=3.0, start=0.7)
        for t0, t1 in [(0.0, 2.0), (0.7, 1.7), (1.0, 1.05), (5.5, 9.25)]:
            assert src.count_in(t0, t1) == len(list(src.times_in(t0, t1)))

    def test_times_in_are_ascending_and_in_window(self):
        src = CbrSource(node=1, rate=7.0, start=0.3)
        times = list(src.times_in(1.0, 2.0))
        assert times == sorted(times)
        assert all(1.0 <= t < 2.0 for t in times)

    def test_first_index_at_or_after(self):
        src = CbrSource(node=1, rate=10.0, start=0.0)
        assert src.first_index_at_or_after(0.0) == 0
        assert src.first_index_at_or_after(0.1) == 1
        assert src.first_index_at_or_after(0.05) == 1
        # Floating-point guard: an instant a hair before a departure still
        # maps to that departure.
        assert src.first_index_at_or_after(0.3 - 1e-15) == 3


class TestSourcesFor:
    def test_one_source_per_non_destination_node(self):
        sources = sources_for([0, 1, 2, 3], destination=2)
        assert [s.node for s in sources] == [0, 1, 3]

    def test_rate_passthrough(self):
        sources = sources_for([0, 1], destination=0, rate=25.0)
        assert sources[0].rate == 25.0
