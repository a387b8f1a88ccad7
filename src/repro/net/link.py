"""Bidirectional links: a pair of channels plus shared up/down state."""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..engine import Scheduler
from ..errors import NetworkError
from .channel import Channel


class Link:
    """An undirected adjacency realized as two directed channels.

    The link as a whole is up or down; per-direction failure is not modeled
    (the paper's failures are whole-link events).  :attr:`up` is a plain
    attribute that only :meth:`take_down` and :meth:`bring_up` write, so
    reading it is the whole cost of a liveness check.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        u: int,
        v: int,
        delay: float,
        deliver_to_u: Callable[[int, Any], None],
        deliver_to_v: Callable[[int, Any], None],
    ) -> None:
        if u == v:
            raise NetworkError(f"link endpoints must differ, got ({u}, {v})")
        self.u, self.v = (u, v) if u < v else (v, u)
        if (u, v) != (self.u, self.v):
            deliver_to_u, deliver_to_v = deliver_to_v, deliver_to_u
        self._to_v = Channel(scheduler, self.u, self.v, delay, deliver_to_v)
        self._to_u = Channel(scheduler, self.v, self.u, delay, deliver_to_u)
        self.up = True

    # ------------------------------------------------------------------

    @property
    def endpoints(self) -> Tuple[int, int]:
        """The (low, high) node-id pair of this link."""
        return (self.u, self.v)

    def channel_from(self, node: int) -> Channel:
        """The outbound channel as seen from ``node``."""
        if node == self.u:
            return self._to_v
        if node == self.v:
            return self._to_u
        raise NetworkError(f"node {node} is not an endpoint of link {self.endpoints}")

    def send(self, src: int, message: Any) -> None:
        """Send ``message`` from endpoint ``src`` toward the other end."""
        self.channel_from(src).send(message)

    def take_down(self) -> int:
        """Fail the link in both directions; returns messages destroyed."""
        self.up = False
        return self._to_v.take_down() + self._to_u.take_down()

    def reset(self) -> int:
        """Drop all in-flight messages in both directions, staying up.

        Models the transport (TCP) connection dying underneath a healthy
        link — a BGP session reset.  Returns messages destroyed.
        """
        return self._to_v.drop_in_flight() + self._to_u.drop_in_flight()

    def bring_up(self) -> None:
        """Repair the link in both directions."""
        self._to_v.bring_up()
        self._to_u.bring_up()
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Link {self.u}<->{self.v} {state}>"
