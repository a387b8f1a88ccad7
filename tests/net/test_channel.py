"""Unit tests for repro.net.channel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Scheduler
from repro.errors import NetworkError
from repro.net import Channel
from repro.telemetry import TelemetryProbe


@pytest.fixture
def inbox():
    return []


@pytest.fixture
def channel(scheduler, inbox):
    return Channel(
        scheduler, src=1, dst=2, delay=0.5,
        deliver=lambda src, msg: inbox.append((scheduler.now, src, msg)),
    )


class TestDelivery:
    def test_message_arrives_after_delay(self, scheduler, channel, inbox):
        channel.send("hello")
        scheduler.run()
        assert inbox == [(0.5, 1, "hello")]

    def test_fifo_order(self, scheduler, channel, inbox):
        channel.send("a")
        scheduler.call_at(0.1, lambda: channel.send("b"))
        scheduler.run()
        assert [msg for _t, _s, msg in inbox] == ["a", "b"]

    def test_counters(self, scheduler, channel):
        probe = TelemetryProbe()
        scheduler.observe(probe)
        channel.send("x")
        channel.send("y")
        assert probe.snapshot().counter("net.messages_sent.str") == 2
        assert probe.snapshot().counter("net.messages_delivered.str") == 0
        scheduler.run()
        assert probe.snapshot().counter("net.messages_delivered.str") == 2

    def test_in_flight_count(self, scheduler, channel):
        channel.send("x")
        assert channel.in_flight == 1
        scheduler.run()
        assert channel.in_flight == 0

    def test_non_positive_delay_rejected(self, scheduler):
        with pytest.raises(NetworkError):
            Channel(scheduler, 0, 1, 0.0, lambda s, m: None)


class TestFailure:
    def test_send_on_down_channel_raises(self, scheduler, channel):
        channel.take_down()
        with pytest.raises(NetworkError, match="down"):
            channel.send("x")

    def test_take_down_drops_in_flight(self, scheduler, channel, inbox):
        channel.send("doomed")
        dropped = channel.take_down()
        scheduler.run()
        assert dropped == 1
        assert inbox == []

    def test_take_down_idempotent(self, channel):
        channel.send("x")
        assert channel.take_down() == 1
        assert channel.take_down() == 0

    def test_bring_up_restores_delivery(self, scheduler, channel, inbox):
        channel.take_down()
        channel.bring_up()
        channel.send("again")
        scheduler.run()
        assert [msg for _t, _s, msg in inbox] == ["again"]

    def test_messages_after_restore_not_ordered_behind_dropped(
        self, scheduler, channel, inbox
    ):
        channel.send("lost")
        channel.take_down()
        channel.bring_up()
        channel.send("kept")
        scheduler.run()
        assert [msg for _t, _s, msg in inbox] == ["kept"]


# ----------------------------------------------------------------------
# The in-flight queue under interleaved sends, drops, failures, repairs
# ----------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "send", "drop", "down", "up"]),
        st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 0.7]),
    ),
    max_size=40,
)


@given(OPS)
@settings(deadline=None)
def test_in_flight_queue_under_interleaved_operations(ops):
    """Each op runs after every delivery due by its time.  A model of the
    pipe (messages sent, minus those destroyed, minus those delivered)
    must match the channel after every op; survivors arrive in send order,
    a destroyed message never arrives, and the queue never holds a handle
    that already fired or was cancelled."""
    scheduler = Scheduler()
    inbox = []
    channel = Channel(
        scheduler, src=1, dst=2, delay=0.5,
        deliver=lambda src, msg: inbox.append(msg),
    )
    survivors, destroyed = [], set()
    now = 0.0
    for number, (op, wait) in enumerate(ops):
        now += wait
        scheduler.run(until=now)
        if op == "send":
            if channel.up:
                channel.send(number)
                survivors.append(number)
            else:
                with pytest.raises(NetworkError):
                    channel.send(number)
        else:
            pipe = [m for m in survivors if m not in inbox]
            if op == "drop":
                assert channel.drop_in_flight() == len(pipe)
            elif op == "down":
                was_up = channel.up
                assert channel.take_down() == (len(pipe) if was_up else 0)
            else:
                channel.bring_up()
            if op != "up":
                destroyed.update(pipe)
                survivors = [m for m in survivors if m not in destroyed]
        assert channel.in_flight == len([m for m in survivors if m not in inbox])
        assert all(
            not event.fired and not event.cancelled
            for event, *_ in channel._pending
        )
    scheduler.run()
    assert inbox == survivors
    assert destroyed.isdisjoint(inbox)
    assert channel.in_flight == 0 and not channel._pending
