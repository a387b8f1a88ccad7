"""The network: nodes wired together by links according to a topology.

:class:`Network` is the glue between the static :class:`~repro.topology.Topology`
and the live simulation: it instantiates one :class:`~repro.net.link.Link`
per topology edge, hands every node its port table (``neighbor -> Link``,
through which :meth:`Node.send` reaches the right channel), owns the
:class:`~repro.net.trace.MessageTrace` every send is recorded in, and
implements link-failure injection with immediate endpoint notification
(interface-down detection, which is how the paper's node 4 knows to send
withdrawals the moment link [4 0] fails).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..engine import Scheduler
from ..errors import NetworkError
from ..topology import Topology
from .link import Link
from .node import Node
from .trace import MessageTrace

NodeFactory = Callable[[int, Scheduler], Node]


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Network:
    """A live network of protocol nodes over a topology.

    Parameters
    ----------
    topology:
        The intended adjacency graph (never mutated by the network).
    scheduler:
        Shared simulation scheduler.
    node_factory:
        ``factory(node_id, scheduler) -> Node`` used to build every node.
    """

    def __init__(
        self,
        topology: Topology,
        scheduler: Scheduler,
        node_factory: NodeFactory,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.trace = MessageTrace()
        self.nodes: Dict[int, Node] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        # node -> links its crash took down (restored on restart, unless the
        # far endpoint is itself still crashed).
        self._crashed: Dict[int, List[Tuple[int, int]]] = {}

        for node_id in topology.nodes:
            node = node_factory(node_id, scheduler)
            if node.node_id != node_id:
                raise NetworkError(
                    f"factory returned node id {node.node_id} for requested {node_id}"
                )
            self.nodes[node_id] = node

        # Each node's port table.  Edges come in ascending (u, v) order, so
        # every table fills in ascending neighbor order.
        ports: Dict[int, Dict[int, Link]] = {node_id: {} for node_id in self.nodes}
        for u, v, delay in topology.edges():
            link = Link(
                scheduler,
                u,
                v,
                delay,
                deliver_to_u=self.nodes[u].deliver,
                deliver_to_v=self.nodes[v].deliver,
            )
            self._links[_edge_key(u, v)] = link
            ports[u][v] = link
            ports[v][u] = link
        for node_id, node in self.nodes.items():
            node.attach(self, ports[node_id])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"no node {node_id} in network") from None

    def link(self, u: int, v: int) -> Link:
        try:
            return self._links[_edge_key(u, v)]
        except KeyError:
            raise NetworkError(f"no link ({u}, {v}) in network") from None

    def link_is_up(self, u: int, v: int) -> bool:
        """True when the adjacency exists and has not been failed."""
        link = self._links.get(_edge_key(u, v))
        return link is not None and link.up

    def node_is_up(self, node_id: int) -> bool:
        """True when the node exists and is not currently crashed."""
        return node_id in self.nodes and node_id not in self._crashed

    @property
    def links(self) -> List[Link]:
        return [self._links[key] for key in sorted(self._links)]

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_link(self, u: int, v: int, silent: bool = False) -> None:
        """Fail link ``{u, v}`` now: drop in-flight messages, notify ends.

        With ``silent=False`` (the default, and the paper's model) both
        endpoints are notified immediately — interface-level detection.
        ``silent=True`` models a failure the interfaces do not report (a
        one-way fault, a middlebox dying): the channels go dark but no
        ``on_link_down`` fires, so a protocol only discovers the loss
        through its own liveness mechanism (BGP hold timers).  Idempotent
        on an already-down link.
        """
        link = self.link(u, v)
        if not link.up:
            return
        link.take_down()
        if not silent:
            self.nodes[u].on_link_down(v)
            self.nodes[v].on_link_down(u)

    def restore_link(self, u: int, v: int) -> None:
        """Bring link ``{u, v}`` back up and notify both endpoints."""
        link = self.link(u, v)
        if link.up:
            return
        link.bring_up()
        self.nodes[u].on_link_up(v)
        self.nodes[v].on_link_up(u)

    # ------------------------------------------------------------------
    # Session and whole-node fault injection
    # ------------------------------------------------------------------

    def reset_session(self, u: int, v: int) -> None:
        """Reset the transport session on link ``{u, v}``; the link stays up.

        In-flight messages in both directions are destroyed (the TCP
        connection carrying them is gone) and both endpoints get their
        :meth:`Node.on_session_reset` hook, after which re-establishment —
        and the full-table re-exchange it triggers — is the protocol's job.
        """
        link = self.link(u, v)
        link.reset()
        self.nodes[u].on_session_reset(v)
        self.nodes[v].on_session_reset(u)

    def crash_node(self, node_id: int, silent: bool = False) -> None:
        """Crash ``node_id`` now: queued messages, timers, and RIBs are lost.

        Every incident link that was up is taken down (in-flight messages
        destroyed).  With ``silent=False`` the surviving endpoints are
        notified immediately (interface-level detection of the dead router);
        ``silent=True`` leaves them to discover the loss through their own
        liveness machinery (BGP hold timers).  Idempotent on an
        already-crashed node.
        """
        node = self.node(node_id)
        if node_id in self._crashed:
            return
        took_down: List[Tuple[int, int]] = []
        for nbr in sorted(self.topology.neighbors(node_id)):
            link = self._links[_edge_key(node_id, nbr)]
            if link.up:
                link.take_down()
                took_down.append(_edge_key(node_id, nbr))
                if not silent:
                    self.nodes[nbr].on_link_down(node_id)
        self._crashed[node_id] = took_down
        node.crash()

    def restart_node(self, node_id: int) -> None:
        """Restart a crashed node: it comes back cold and re-learns.

        Links its crash took down are restored (both endpoints notified),
        except toward peers that are themselves still crashed — those links
        come back when the last-down peer restarts.  No-op on a node that is
        not crashed.
        """
        node = self.node(node_id)
        took_down = self._crashed.pop(node_id, None)
        if took_down is None:
            return
        node.restart()
        for key in took_down:
            u, v = key
            other = v if u == node_id else u
            if other in self._crashed:
                # The far end is still down; hand the link over to its
                # crash record so its restart restores it.
                self._crashed[other].append(key)
                continue
            link = self._links[key]
            if not link.up:
                link.bring_up()
                self.nodes[u].on_link_up(v)
                self.nodes[v].on_link_up(u)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's start hook (ascending id, deterministic)."""
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network n={len(self.nodes)} links={len(self._links)} "
            f"messages={len(self.trace)}>"
        )
