"""Unit tests for repro.net.trace."""

import pytest

from repro.net import MessageTrace, TraceRecord


class Ping:
    pass


class Pong:
    pass


@pytest.fixture
def trace():
    t = MessageTrace()
    t.record(1.0, 0, 1, Ping())
    t.record(2.0, 1, 0, Pong())
    t.record(3.0, 0, 2, Ping())
    return t


class TestQueries:
    def test_len_and_iter(self, trace):
        assert len(trace) == 3
        assert [r.time for r in trace] == [1.0, 2.0, 3.0]

    def test_kind_is_class_name(self, trace):
        assert trace.records()[0].kind == "Ping"

    def test_count_with_predicate(self, trace):
        assert trace.count(lambda r: r.kind == "Ping") == 2

    def test_first_and_last_time(self, trace):
        assert trace.last_time() == 3.0

    def test_last_time_with_predicate(self, trace):
        assert trace.last_time(lambda r: r.kind == "Ping") == 3.0

    def test_no_match_returns_none(self, trace):
        assert trace.last_time(lambda r: r.src == 99) is None

    def test_since(self, trace):
        assert [r.time for r in trace.since(2.0)] == [2.0, 3.0]

    def test_records_filtered(self, trace):
        pongs = trace.records(lambda r: r.kind == "Pong")
        assert len(pongs) == 1 and pongs[0].src == 1

    def test_clear(self, trace):
        trace.clear()
        assert len(trace) == 0
        assert trace.last_time() is None


class TestKindTallies:
    """The incremental per-kind counts agree with a full rescan."""

    def test_count_kind(self, trace):
        assert trace.count_kind("Ping") == 2
        assert trace.count_kind("Pong") == 1

    def test_count_kind_unknown_is_zero(self, trace):
        assert trace.count_kind("Open") == 0

    def test_count_with_kind_keyword(self, trace):
        assert trace.count(kind="Ping") == 2
        assert trace.count(kind="Open") == 0

    def test_count_rejects_predicate_plus_kind(self, trace):
        with pytest.raises(ValueError, match="not both"):
            trace.count(lambda r: True, kind="Ping")

    def test_kind_counts_sorted_copy(self, trace):
        counts = trace.kind_counts()
        assert counts == {"Ping": 2, "Pong": 1}
        assert list(counts) == sorted(counts)
        counts["Ping"] = 99
        assert trace.count_kind("Ping") == 2

    def test_tallies_match_predicate_scan(self, trace):
        for kind in ("Ping", "Pong"):
            assert trace.count_kind(kind) == trace.count(
                lambda r, k=kind: r.kind == k
            )

    def test_clear_resets_tallies(self, trace):
        trace.clear()
        assert trace.kind_counts() == {}
        assert trace.count_kind("Ping") == 0
        trace.record(4.0, 2, 0, Pong())
        assert trace.kind_counts() == {"Pong": 1}
