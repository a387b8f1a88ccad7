"""Unit tests for repro.telemetry.timeline, including the schema gate."""

import json
import pickle

import pytest

from repro.errors import TelemetryError
from repro.telemetry import GLOBAL_TRACK, Timeline, validate_chrome_trace


@pytest.fixture
def timeline():
    t = Timeline()
    t.instant(1.0, "failure", "scenario")
    t.span(0.0, 2.5, "warm-up", "phase")
    t.instant(3.0, "mrai-expiry", "bgp", track=2, peer=1)
    return t


class TestRecording:
    def test_len_and_order(self, timeline):
        records = timeline.records()
        assert len(timeline) == 3
        assert [r.name for r in records] == ["failure", "warm-up", "mrai-expiry"]

    def test_instant_vs_span(self, timeline):
        instant, span, _ = timeline.records()
        assert instant.duration is None and instant.end == 1.0
        assert span.duration == 2.5 and span.end == 2.5

    def test_backwards_span_rejected(self):
        with pytest.raises(TelemetryError, match="before it starts"):
            Timeline().span(5.0, 2.0, "bad", "phase")

    def test_args_sorted_and_hashable(self):
        t = Timeline()
        t.instant(0.0, "e", "c", zebra=1, alpha=2)
        (record,) = t.records()
        assert record.args == (("alpha", 2), ("zebra", 1))
        assert hash(record) is not None

    def test_category_filter_and_categories(self, timeline):
        assert [r.name for r in timeline.records("bgp")] == ["mrai-expiry"]
        assert timeline.categories() == ["bgp", "phase", "scenario"]

    def test_records_pickle(self, timeline):
        records = timeline.records()
        assert pickle.loads(pickle.dumps(records)) == records


class TestJsonl:
    def test_one_line_per_record(self, timeline):
        lines = timeline.to_jsonl().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first == {
            "time": 1.0,
            "name": "failure",
            "category": "scenario",
            "track": GLOBAL_TRACK,
        }
        span = json.loads(lines[1])
        assert span["duration"] == 2.5
        tracked = json.loads(lines[2])
        assert tracked["track"] == 2 and tracked["args"] == {"peer": 1}

    def test_empty_timeline_exports_empty(self):
        assert Timeline().to_jsonl() == ""


class TestChromeTrace:
    def test_payload_validates(self, timeline):
        payload = timeline.to_chrome_trace()
        # 1 process_name + 2 thread_names (global, node 2) + 3 records.
        assert validate_chrome_trace(payload) == 6

    def test_sim_seconds_become_microseconds(self, timeline):
        events = timeline.to_chrome_trace()["traceEvents"]
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 2.5e6

    def test_tracks_map_to_threads(self, timeline):
        events = timeline.to_chrome_trace()["traceEvents"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "sim", 3: "node 2"}

    def test_process_name_metadata(self, timeline):
        events = timeline.to_chrome_trace(process_name="study")["traceEvents"]
        assert events[0]["args"] == {"name": "study"}

    def test_write_round_trip(self, timeline, tmp_path):
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "timeline.jsonl"
        timeline.write_chrome_trace(str(trace_path))
        timeline.write_jsonl(str(jsonl_path))
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == 6
        assert len(jsonl_path.read_text().splitlines()) == 3


class TestValidator:
    def good_event(self, **overrides):
        event = {
            "ph": "i", "name": "e", "pid": 0, "tid": 0,
            "ts": 1.0, "cat": "c", "s": "t",
        }
        event.update(overrides)
        return event

    def test_accepts_emitted_subset(self):
        payload = {"traceEvents": [self.good_event()]}
        assert validate_chrome_trace(payload) == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be an object"),
            ({}, "traceEvents"),
            ({"traceEvents": [42]}, "not an object"),
        ],
    )
    def test_rejects_malformed_top_level(self, payload, message):
        with pytest.raises(TelemetryError, match=message):
            validate_chrome_trace(payload)

    def test_rejects_unknown_phase(self):
        with pytest.raises(TelemetryError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [self.good_event(ph="B")]})

    def test_rejects_negative_tid_and_ts(self):
        with pytest.raises(TelemetryError, match="negative tid"):
            validate_chrome_trace({"traceEvents": [self.good_event(tid=-1)]})
        with pytest.raises(TelemetryError, match="negative timestamp"):
            validate_chrome_trace({"traceEvents": [self.good_event(ts=-1.0)]})

    def test_rejects_missing_fields(self):
        event = self.good_event()
        del event["cat"]
        with pytest.raises(TelemetryError, match="'cat'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_complete_event_without_duration(self):
        with pytest.raises(TelemetryError, match="dur"):
            validate_chrome_trace({"traceEvents": [self.good_event(ph="X")]})

    def test_rejects_bad_instant_scope(self):
        with pytest.raises(TelemetryError, match="scope"):
            validate_chrome_trace({"traceEvents": [self.good_event(s="q")]})
