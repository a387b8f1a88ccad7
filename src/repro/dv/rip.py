"""A RIP-like distance-vector speaker — the §2 baseline.

The paper positions path-vector routing against distance-vector routing:
"the poison reverse scheme in distance vector protocols, such as RIP, can
only detect 2-node routing loops", while BGP's full paths detect arbitrarily
long loops involving the receiver.  This module implements the baseline so
that claim is demonstrable with the library's own loop metrics: run the same
failure on :class:`RipSpeaker` networks with poison reverse on, and watch
3-node loops (and counting-to-infinity) that the path-vector speaker would
have avoided... and 2-node loops it correctly prevents.

Implementation notes:

* Triggered updates only (no periodic timer): metrics are event-driven just
  like the BGP speaker, which keeps convergence-time comparisons fair.
* Two loop-mitigation settings: plain Bellman-Ford, or (the default)
  poison reverse, which advertises a route back to its next hop with an
  infinite metric.
* Metrics count AS hops, capped at :data:`INFINITY_METRIC` (16), at which
  point the route is flushed — the classic counting-to-infinity ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..engine import RandomStreams, Scheduler
from ..errors import ProtocolError
from ..net import Node
from .messages import INFINITY_METRIC, DvUpdate

FibListener = Callable[[float, int, str, Optional[int]], None]


@dataclass
class DvRoute:
    """The speaker's current route for one prefix."""

    metric: int
    next_hop: int  # the speaker's own id for a local origination

    @property
    def reachable(self) -> bool:
        return self.metric < INFINITY_METRIC


class RipSpeaker(Node):
    """An event-driven distance-vector router with optional poison reverse."""

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        streams: RandomStreams,
        processing_delay: tuple = (0.1, 0.5),
        poison_reverse: bool = True,
        fib_listener: Optional[FibListener] = None,
    ) -> None:
        rng = streams.stream(f"dv-processing:{node_id}")
        low, high = processing_delay

        def service_time() -> float:
            return rng.uniform(low, high)

        super().__init__(node_id, scheduler, service_time)
        self.poison_reverse = poison_reverse
        self._routes: Dict[str, DvRoute] = {}
        # metric-as-heard per (neighbor, prefix): the DV analogue of the
        # Adj-RIB-In, needed to fail over without waiting for re-advertisement.
        self._heard: Dict[int, Dict[str, int]] = {}
        self._origins: set = set()
        self._fib_listener = fib_listener

    # ------------------------------------------------------------------

    def originate(self, prefix: str) -> None:
        """Start originating ``prefix`` at metric 0."""
        self._origins.add(prefix)
        self._reselect(prefix)

    def withdraw_origin(self, prefix: str) -> None:
        """Stop originating ``prefix`` (the Tdown trigger)."""
        if prefix not in self._origins:
            raise ProtocolError(f"node {self.node_id} does not originate {prefix!r}")
        self._origins.discard(prefix)
        self._reselect(prefix)

    def start(self) -> None:
        for prefix in sorted(self._origins):
            self._advertise(prefix)

    def route(self, prefix: str) -> Optional[DvRoute]:
        """The current route, or ``None`` when unreachable/unknown."""
        route = self._routes.get(prefix)
        if route is None or not route.reachable:
            return None
        return route

    def next_hop(self, prefix: str) -> Optional[int]:
        """FIB view compatible with the BGP speaker's encoding."""
        route = self.route(prefix)
        return route.next_hop if route else None

    # ------------------------------------------------------------------

    def handle_message(self, src: int, message) -> None:
        if not self.link_is_up(src):
            return
        if not isinstance(message, DvUpdate):
            raise ProtocolError(f"unexpected message {message!r} from {src}")
        self._heard.setdefault(src, {})[message.prefix] = message.metric
        self._reselect(message.prefix)

    def on_link_down(self, neighbor: int) -> None:
        affected = sorted(self._heard.pop(neighbor, {}))
        for prefix in affected:
            self._reselect(prefix)

    def on_link_up(self, neighbor: int) -> None:
        for prefix in sorted(self._routes):
            if self._routes[prefix].reachable:
                self._send_to(neighbor, prefix)

    # ------------------------------------------------------------------

    def _best_candidate(self, prefix: str) -> Optional[DvRoute]:
        if prefix in self._origins:
            return DvRoute(metric=0, next_hop=self.node_id)
        best: Optional[DvRoute] = None
        for neighbor in sorted(self._heard):
            if not self.link_is_up(neighbor):
                continue
            heard = self._heard[neighbor].get(prefix)
            if heard is None:
                continue
            metric = min(heard + 1, INFINITY_METRIC)
            if metric >= INFINITY_METRIC:
                continue
            if best is None or metric < best.metric:
                best = DvRoute(metric=metric, next_hop=neighbor)
        return best

    def _reselect(self, prefix: str) -> None:
        old = self._routes.get(prefix)
        new = self._best_candidate(prefix)
        if new is None:
            new = DvRoute(metric=INFINITY_METRIC, next_hop=self.node_id)
        if old == new:
            return
        self._routes[prefix] = new
        if self._fib_listener is not None:
            hop = new.next_hop if new.reachable else None
            self._fib_listener(self.scheduler.now, self.node_id, prefix, hop)
        self._advertise(prefix)

    def _advertise(self, prefix: str) -> None:
        for neighbor in self.neighbors:
            self._send_to(neighbor, prefix)

    def _send_to(self, neighbor: int, prefix: str) -> None:
        route = self._routes.get(prefix)
        if route is None:
            return
        metric = route.metric
        if self.poison_reverse and route.reachable and route.next_hop == neighbor:
            metric = INFINITY_METRIC
        self.send(neighbor, DvUpdate(prefix=prefix, metric=metric))
