"""Unit tests for repro.net.trace."""

import pytest

from repro.net import MessageTrace


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

