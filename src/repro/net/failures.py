"""Fault injectors: the scheduled events of an experiment.

The paper drives every experiment with a single topology-change event.  Here
every event is a small frozen *injector* — plain data, so a scenario holding
a schedule of them pickles into sweep workers unchanged — whose
``inject(network)`` schedules it on a :class:`~repro.net.network.Network` at
its time ``at``.  The two §4.1 event shapes plus the *churn* events real BGP
deployments are dominated by:

* **Tdown** (:class:`OriginWithdrawal`) — "the destination AS becomes
  unreachable from the rest of the network": the origin AS withdraws the
  prefix through the protocol-neutral ``withdraw_origin(prefix)`` every
  protocol node implements (the origin itself stays in the graph).
* **Tlong** (:class:`LinkFailure`) — "a link in the network fails, which does
  not disconnect the destination AS but forces the rest of the network to use
  less preferred paths": one specific transit link is failed.
  :class:`LinkRestore` brings a failed link back.
* **Session reset** (:class:`SessionReset`) — the transport session between
  two adjacent speakers dies while the link stays up; in-flight updates are
  lost and the peers must re-establish and re-exchange their tables.
* **Node crash** (:class:`NodeCrash`) — a whole router loses its queued
  messages, timers, and RIBs; an optional restart brings it back cold.
* **Link flap** (:class:`LinkFlap`) — a link fails and recovers repeatedly,
  composed from :class:`LinkFailure`/:class:`LinkRestore` pairs.

BGP's aggregate/deaggregate cycle (Tagg) is shaped the same way but lives
with the aggregation code, :class:`~repro.bgp.aggregation.AggregationCycle`.

Each injector class declares its :class:`EventKind` label and whether it
``needs_sessions`` — whether what it breaks is only detected or repaired by
the keepalive/hold-timer session layer — and ``check(scenario)`` validates
it against the scenario it is scheduled in, raising
:class:`~repro.errors.ConfigError`.  ``scenario`` is anything with a
``topology``, a ``destination`` and ``originations``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, List, Optional

from ..errors import ConfigError
from .network import Network


class EventKind(enum.Enum):
    """The two §4.1 topology-change events, plus the churn extensions."""

    TDOWN = "tdown"
    TLONG = "tlong"
    TRESET = "treset"
    TCRASH = "tcrash"
    TFLAP = "tflap"
    TAGG = "tagg"


def _check_link(topology, u: int, v: int, may_cut: bool = False) -> None:
    if not topology.has_edge(u, v):
        raise ConfigError(f"link ({u}, {v}) not in topology")
    if not may_cut and topology.is_cut_edge(u, v):
        raise ConfigError(
            f"link ({u}, {v}) is a cut edge; failing it would disconnect "
            "the graph, which contradicts the event's definition"
        )


@dataclass(frozen=True)
class LinkFailure:
    """A single link failure at an absolute time (Tlong)."""

    kind: ClassVar[Optional[EventKind]] = EventKind.TLONG
    needs_sessions: ClassVar[bool] = False

    u: int
    v: int
    at: float

    def check(self, scenario) -> None:
        _check_link(scenario.topology, self.u, self.v)

    def inject(self, network: Network) -> None:
        u, v = self.u, self.v
        network.link(u, v)  # validate now, fail later
        network.scheduler.call_at(
            self.at, lambda: network.fail_link(u, v), priority=0, name=f"fail:{u}-{v}"
        )


@dataclass(frozen=True)
class LinkRestore:
    """A single link restoration at an absolute time."""

    kind: ClassVar[Optional[EventKind]] = None  # no §4.1 event on its own
    needs_sessions: ClassVar[bool] = False

    u: int
    v: int
    at: float

    def check(self, scenario) -> None:
        _check_link(scenario.topology, self.u, self.v, may_cut=True)

    def inject(self, network: Network) -> None:
        u, v = self.u, self.v
        network.link(u, v)
        network.scheduler.call_at(
            self.at,
            lambda: network.restore_link(u, v),
            priority=0,
            name=f"restore:{u}-{v}",
        )


@dataclass(frozen=True)
class SessionReset:
    """Reset the transport session on link ``{u, v}`` at time ``at``.

    The physical link stays up; in-flight messages die with the connection
    and both endpoints get their ``on_session_reset`` hook.
    """

    kind: ClassVar[Optional[EventKind]] = EventKind.TRESET
    needs_sessions: ClassVar[bool] = True

    u: int
    v: int
    at: float

    def check(self, scenario) -> None:
        # A session reset never takes the link down, so a cut edge is fine.
        _check_link(scenario.topology, self.u, self.v, may_cut=True)

    def inject(self, network: Network) -> None:
        u, v = self.u, self.v
        network.link(u, v)  # validate now, reset later
        network.scheduler.call_at(
            self.at,
            lambda: network.reset_session(u, v),
            priority=0,
            name=f"reset:{u}-{v}",
        )


@dataclass(frozen=True)
class NodeCrash:
    """Crash ``node`` at time ``at``; optionally restart it later.

    The crash destroys the router's queued messages, timers, and RIBs, and
    takes every incident link down.  ``restart_after`` seconds later (if not
    ``None``) the router comes back cold — empty RIBs, configured
    originations intact — and re-learns the topology as its links return.
    ``silent`` suppresses the neighbors' interface-down notification, so
    they only notice via their own liveness machinery (BGP hold timers).
    """

    kind: ClassVar[Optional[EventKind]] = EventKind.TCRASH
    needs_sessions: ClassVar[bool] = True

    node: int
    at: float
    restart_after: Optional[float] = None
    silent: bool = False

    def __post_init__(self) -> None:
        if self.restart_after is not None and self.restart_after <= 0:
            raise ConfigError(
                f"restart_after must be positive, got {self.restart_after}"
            )

    def check(self, scenario) -> None:
        if not scenario.topology.has_node(self.node):
            raise ConfigError(f"crash node {self.node} not in topology")
        if self.node == scenario.destination:
            raise ConfigError(
                "crashing the destination is a Tdown event, not a Tcrash"
            )

    def inject(self, network: Network) -> None:
        node, silent = self.node, self.silent
        network.node(node)
        network.scheduler.call_at(
            self.at,
            lambda: network.crash_node(node, silent=silent),
            priority=0,
            name=f"crash:{node}",
        )
        if self.restart_after is not None:
            network.scheduler.call_at(
                self.at + self.restart_after,
                lambda: network.restart_node(node),
                priority=0,
                name=f"restart:{node}",
            )


#: The share of each flap period a :class:`LinkFlap` holds its link down.
FLAP_DUTY = 0.5


@dataclass(frozen=True)
class LinkFlap:
    """Fail and restore link ``{u, v}`` repeatedly, starting at ``at``.

    Flap ``k`` (0-based) fails the link at ``at + k*period`` and restores it
    ``FLAP_DUTY * period`` seconds later, so consecutive failures are spaced
    one ``period`` apart and the link ends the sequence *up*.
    """

    kind: ClassVar[Optional[EventKind]] = EventKind.TFLAP
    needs_sessions: ClassVar[bool] = True

    u: int
    v: int
    at: float
    period: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigError(f"flap_period must be positive, got {self.period}")
        if self.count < 1:
            raise ConfigError(f"flap_count must be >= 1, got {self.count}")

    def events(self) -> List[object]:
        """The failure/restore pairs this flap expands to, in time order."""
        expanded: List[object] = []
        for k in range(self.count):
            down_at = self.at + k * self.period
            up_at = down_at + FLAP_DUTY * self.period
            expanded.append(LinkFailure(self.u, self.v, down_at))
            expanded.append(LinkRestore(self.u, self.v, up_at))
        return expanded

    def check(self, scenario) -> None:
        _check_link(scenario.topology, self.u, self.v)

    def inject(self, network: Network) -> None:
        for event in self.events():
            event.inject(network)


@dataclass(frozen=True)
class OriginWithdrawal:
    """A Tdown trigger: at time ``at``, ``node`` stops originating ``prefix``.

    Calls the protocol-neutral ``withdraw_origin(prefix)``, which both
    :class:`~repro.bgp.speaker.BgpSpeaker` and the RIP node implement.
    """

    kind: ClassVar[Optional[EventKind]] = EventKind.TDOWN
    needs_sessions: ClassVar[bool] = False

    node: int
    prefix: str
    at: float

    def check(self, scenario) -> None:
        if (self.node, self.prefix) not in scenario.originations:
            raise ConfigError(
                f"origin withdrawal ({self.node}, {self.prefix!r}) is not "
                "originated at warm-up"
            )

    def inject(self, network: Network) -> None:
        origin = network.node(self.node)
        network.scheduler.call_at(
            self.at,
            lambda: origin.withdraw_origin(self.prefix),
            priority=0,
            name=f"tdown:{self.node}",
        )
