"""Reliable, in-order, unidirectional message channels.

BGP runs over TCP, so the control-plane abstraction the protocol code sees is
a loss-free FIFO byte stream with propagation delay.  :class:`Channel` models
one direction of such a stream: messages sent on it arrive at the far end
after the link delay, never reordered and never dropped — unless the channel
goes *down*, at which point in-flight messages are destroyed (the TCP session
is gone) and nothing further is accepted.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from ..engine import Event, EventPriority, Scheduler
from ..errors import NetworkError


class Channel:
    """One direction of a point-to-point link.

    Parameters
    ----------
    scheduler:
        The simulation scheduler delivering messages.
    src, dst:
        Node ids, for diagnostics and tracing.
    delay:
        Propagation delay in seconds (the paper uses 2 ms).
    deliver:
        Callback ``deliver(src, message)`` invoked at the destination when a
        message arrives.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        src: int,
        dst: int,
        delay: float,
        deliver: Callable[[int, Any], None],
    ) -> None:
        if delay <= 0:
            raise NetworkError(f"channel delay must be positive, got {delay}")
        self._scheduler = scheduler
        self.src = src
        self.dst = dst
        self.delay = delay
        self._deliver = deliver
        self._event_name = f"deliver:{src}->{dst}"
        #: True while the channel can carry messages.
        self.up = True
        # The messages propagating on the channel, oldest first, as
        # ``(event, message, generation, sequence)``.  Arrival times are
        # monotone and every delivery has the same priority, so the head is
        # always the next one to arrive.
        self._pending: Deque[Tuple[Event, Any, int, int]] = deque()
        self._last_arrival = 0.0
        # The FIFO stamp observers see: sequence numbers are contiguous
        # within a generation; a generation ends whenever in-flight
        # messages are destroyed.
        self._generation = 0
        self._generation_seq = 0

    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Messages currently propagating on the channel."""
        return len(self._pending)

    # ------------------------------------------------------------------

    def send(self, message: Any) -> None:
        """Transmit ``message``; it arrives ``delay`` seconds later, in order.

        Sending on a down channel raises :class:`NetworkError` — protocol
        code must not talk to a dead peer, and surfacing that as an error has
        caught several speaker bugs in development.
        """
        if not self.up:
            raise NetworkError(f"channel {self.src}->{self.dst} is down")
        scheduler = self._scheduler
        now = scheduler.now
        # FIFO even under (hypothetical) variable delay: arrival times are
        # clamped monotone.
        arrival = max(now + self.delay, self._last_arrival)
        self._last_arrival = arrival
        self._generation_seq += 1
        generation, sequence = self._generation, self._generation_seq
        observer = scheduler.observer
        if observer is not None:
            # The in-flight count includes this message.
            observer.on_channel_send(
                self.src, self.dst, message, generation, sequence, now,
                len(self._pending) + 1,
            )
        event = scheduler.call_at(
            arrival,
            self._arrive,
            priority=EventPriority.DELIVERY,
            name=self._event_name,
            # Messages that declare themselves housekeeping (keepalives)
            # do not block quiescence detection.
            housekeeping=bool(getattr(message, "HOUSEKEEPING", False)),
        )
        self._pending.append((event, message, generation, sequence))

    def _arrive(self) -> None:
        """Delivery event: hand the oldest in-flight message to the far end."""
        _event, message, generation, sequence = self._pending.popleft()
        observer = self._scheduler.observer
        if observer is not None:
            observer.on_channel_deliver(
                self.src, self.dst, message, generation, sequence,
                self._scheduler.now,
            )
        self._deliver(self.src, message)

    def drop_in_flight(self) -> int:
        """Destroy every message currently propagating (TCP session reset).

        The channel's up/down state is untouched.  Returns the number of
        messages destroyed.
        """
        destroyed = len(self._pending)
        for event, _message, _generation, _sequence in self._pending:
            event.cancel()
        self._pending.clear()
        observer = self._scheduler.observer
        if observer is not None:
            observer.on_channel_flush(
                self.src, self.dst, self._generation, destroyed
            )
        self._generation += 1
        self._generation_seq = 0
        return destroyed

    def take_down(self) -> int:
        """Kill the channel, destroying in-flight messages.

        Returns the number of messages destroyed.  Idempotent.
        """
        if not self.up:
            return 0
        self.up = False
        return self.drop_in_flight()

    def bring_up(self) -> None:
        """Restore a down channel (fresh TCP session, empty pipe)."""
        self.up = True
        self._last_arrival = self._scheduler.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Channel {self.src}->{self.dst} {state} delay={self.delay}>"
