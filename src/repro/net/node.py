"""The protocol-agnostic node: serialized message processing over channels.

A :class:`Node` owns a :class:`~repro.engine.process.SerialProcessor` (the
router CPU).  Messages delivered by a channel do not reach the protocol
handler immediately; they queue for a per-message service time drawn from the
node's processing-delay distribution — the paper's U[0.1 s, 0.5 s] — and the
handler runs when service completes.  Protocol implementations (the BGP
speaker, the RIP baseline) subclass this and implement
:meth:`handle_message`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from ..engine import Scheduler, SerialProcessor
from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .link import Link
    from .network import Network


def zero_service_time() -> float:
    """A processing-delay distribution for instant handling (tests)."""
    return 0.0


class Node:
    """Base class for simulated routers.

    Subclasses receive three hooks:

    * :meth:`handle_message` — a message finished its processing delay,
    * :meth:`on_link_down` / :meth:`on_link_up` — adjacency state changed
      (invoked immediately, modeling interface-level failure detection),
    * :meth:`on_session_reset` — the transport session to a neighbor was
      torn down while the physical link stayed up,
    * :meth:`crash` / :meth:`restart` — whole-router fault injection,
    * :meth:`start` — the simulation is about to begin.
    """

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        service_time: Callable[[], float] = zero_service_time,
    ) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self._service_time = service_time
        self.processor = SerialProcessor(scheduler, name=f"node-{node_id}")
        self._network: "Network" = None  # type: ignore[assignment]
        # The port table: ``neighbor -> Link`` for every adjacency, in
        # ascending neighbor order, handed over by :meth:`attach`.
        self._ports: Dict[int, "Link"] = {}
        self.alive = True
        self.messages_received = 0
        self.messages_dropped_dead = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, network: "Network", ports: Dict[int, "Link"]) -> None:
        """Called once by :class:`Network` when the node is registered,
        with its port table (``neighbor -> Link``, ascending neighbor)."""
        if self._network is not None:
            raise NetworkError(f"node {self.node_id} already attached to a network")
        self._network = network
        self._ports = ports

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise NetworkError(f"node {self.node_id} is not attached to a network")
        return self._network

    @property
    def neighbors(self) -> List[int]:
        """Ids of neighbors whose link to this node is currently up,
        ascending."""
        return [neighbor for neighbor, link in self._ports.items() if link.up]

    def link_is_up(self, neighbor: int) -> bool:
        """True when the adjacency to ``neighbor`` exists and is up."""
        link = self._ports.get(neighbor)
        return link is not None and link.up

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def send(self, neighbor: int, message: Any) -> None:
        """Transmit ``message`` to an adjacent node over the live link.

        Raises :class:`NetworkError` when there is no link to ``neighbor``
        or it is down.  Every send is recorded in the network's
        :class:`~repro.net.trace.MessageTrace`.
        """
        link = self._ports.get(neighbor)
        if link is None:
            raise NetworkError(f"no link ({self.node_id}, {neighbor}) in network")
        if not link.up:
            raise NetworkError(f"link ({self.node_id}, {neighbor}) is down")
        self._network.trace.record(self.scheduler.now, self.node_id, neighbor, message)
        link.send(self.node_id, message)

    def deliver(self, src: int, message: Any) -> None:
        """Channel callback: queue the message for CPU service.

        A crashed node's interfaces are dark: deliveries are silently lost.
        Messages flagged ``HOUSEKEEPING`` (keepalives) are processed in
        housekeeping service slots that do not block quiescence detection.
        """
        if not self.alive:
            self.messages_dropped_dead += 1
            return
        self.messages_received += 1
        observer = self.scheduler.observer
        if observer is not None:
            observer.on_cpu_enqueue(self.node_id, self.processor.queue_length)
        self.processor.submit(
            self._service_time(),
            lambda: self.handle_message(src, message),
            housekeeping=bool(getattr(message, "HOUSEKEEPING", False)),
        )

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Initialization hook; default does nothing."""

    def handle_message(self, src: int, message: Any) -> None:
        """Process one message from neighbor ``src`` (after service delay)."""
        raise NotImplementedError

    def on_link_down(self, neighbor: int) -> None:
        """The adjacency to ``neighbor`` just failed; default does nothing."""

    def on_link_up(self, neighbor: int) -> None:
        """The adjacency to ``neighbor`` just recovered; default does nothing."""

    def on_session_reset(self, neighbor: int) -> None:
        """The transport session to ``neighbor`` was reset (link stays up).

        Default does nothing — protocols without a session concept are
        unaffected by a TCP reset.
        """

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Go dark: lose the CPU queue; subclasses drop protocol state too.

        Called by :meth:`Network.crash_node`; do not call directly or the
        network's link bookkeeping is skipped.
        """
        self.alive = False
        self.processor.clear()

    def restart(self) -> None:
        """Come back up cold; subclasses re-seed their configured state.

        Invoked by :meth:`Network.restart_node` *before* the node's links
        are restored, so a restarting protocol sees its adjacencies come up
        one `on_link_up` at a time — exactly like a cold boot.
        """
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id}>"
