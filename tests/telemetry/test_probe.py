"""Unit tests for repro.telemetry.probe (hooks and the wire-size model)."""

import pytest

from repro.bgp import AsPath
from repro.bgp.messages import Announcement, Keepalive, Open, Withdrawal
from repro.telemetry import TelemetryProbe, Timeline, estimate_wire_size


class TestWireSize:
    def test_announcement_scales_with_path_length(self):
        short = Announcement(prefix="d0", path=AsPath([1]))
        long = Announcement(prefix="d0", path=AsPath([3, 2, 1]))
        assert estimate_wire_size(long) == estimate_wire_size(short) + 4

    def test_relative_ordering(self):
        announcement = Announcement(prefix="d0", path=AsPath([1]))
        withdrawal = Withdrawal(prefix="d0")
        open_msg = Open()
        keepalive = Keepalive()
        assert estimate_wire_size(keepalive) == 19  # bare RFC 4271 header
        assert estimate_wire_size(open_msg) > estimate_wire_size(keepalive)
        assert estimate_wire_size(withdrawal) > estimate_wire_size(keepalive)
        assert estimate_wire_size(announcement) > estimate_wire_size(withdrawal)

    def test_unknown_message_counts_as_header(self):
        class Mystery:
            pass

        assert estimate_wire_size(Mystery()) == 19


@pytest.fixture
def probe():
    return TelemetryProbe(timeline=Timeline())


class TestEngineHooks:
    def test_scheduled_and_housekeeping(self, probe):
        probe.on_schedule(0.0, 1.0, "deliver", False)
        probe.on_schedule(0.0, 2.0, "keepalive", True)
        snap = probe.snapshot()
        assert snap.counter("engine.events_scheduled") == 2
        assert snap.counter("engine.housekeeping_scheduled") == 1

    def test_fired_tracks_heap_high_water(self, probe):
        probe.on_event_fired(0.0, 1.0, "a", heap_depth=5)
        probe.on_event_fired(1.0, 2.0, "b", heap_depth=2)
        snap = probe.snapshot()
        assert snap.counter("engine.events_executed") == 2
        gauge = snap.gauges["engine.heap_depth"]
        assert gauge.value == 2 and gauge.high_water == 5


class TestNetHooks:
    def test_per_kind_message_and_byte_counts(self, probe):
        announcement = Announcement(prefix="d0", path=AsPath([2, 1]))
        probe.on_channel_send(0, 1, announcement, 0, 1, 0.0, in_flight=1)
        probe.on_channel_send(0, 1, announcement, 0, 2, 0.0, in_flight=2)
        probe.on_channel_send(1, 0, Withdrawal(prefix="d0"), 0, 1, 0.0, in_flight=1)
        probe.on_channel_deliver(0, 1, announcement, 0, 1, 0.1)
        snap = probe.snapshot()
        assert snap.counter("net.messages_sent.Announcement") == 2
        assert snap.counter("net.messages_sent.Withdrawal") == 1
        assert snap.counter("net.messages_delivered.Announcement") == 1
        assert snap.counter("net.bytes_sent.Announcement") == 2 * (19 + 7 + 4)
        assert snap.histograms["net.channel_occupancy"].count == 3
        assert snap.histograms["net.channel_occupancy"].max == 2

    def test_in_flight_drops_and_cpu_queue(self, probe):
        probe.on_channel_flush(0, 1, 0, destroyed=3)
        probe.on_cpu_enqueue(2, queue_length=4)
        snap = probe.snapshot()
        assert snap.counter("net.in_flight_dropped") == 3
        assert snap.histograms["node.cpu_queue"].max == 4


class TestBgpHooks:
    def test_decisions_and_suppressions(self, probe):
        probe.on_decision(None, "d0")
        probe.on_update_suppressed(1, 2, "d0", "mrai")
        probe.on_update_suppressed(1, 2, "d0", "duplicate")
        probe.on_update_suppressed(1, 3, "d0", "mrai")
        probe.on_variant_extra(1, "ghost_flush")
        snap = probe.snapshot()
        assert snap.counter("bgp.decision_runs") == 1
        assert snap.counter("bgp.updates_suppressed.mrai") == 2
        assert snap.counter("bgp.updates_suppressed.duplicate") == 1
        assert snap.counter("bgp.variant.ghost_flush") == 1

    def test_mrai_expiry_counts_and_marks_timeline(self, probe):
        probe.on_mrai_expiry(4.5, node=2, peer=3, prefix="d0")
        assert probe.snapshot().counter("bgp.mrai_expiries") == 1
        (record,) = probe.timeline.records("bgp")
        assert record.name == "mrai-expiry"
        assert record.time == 4.5 and record.track == 2


class TestDataplaneHooks:
    def test_fib_change_counts_and_marks_timeline(self, probe):
        probe.on_fib_change(6.0, node=3, prefix="d0", next_hop=1)
        probe.on_fib_change(7.0, node=3, prefix="d0", next_hop=None)
        assert probe.snapshot().counter("dataplane.fib_changes") == 2
        records = probe.timeline.records("dataplane")
        assert [r.name for r in records] == ["fib-change", "fib-change"]
        assert dict(records[1].args)["next_hop"] is None


class TestConstruction:
    def test_counters_land_in_its_registry(self):
        probe = TelemetryProbe()
        probe.on_decision(None, "d0")
        assert probe.registry.snapshot().counter("bgp.decision_runs") == 1

    def test_timeline_optional(self):
        probe = TelemetryProbe()
        probe.on_mrai_expiry(1.0, 0, 1, "d0")  # must not raise
        assert probe.timeline is None
