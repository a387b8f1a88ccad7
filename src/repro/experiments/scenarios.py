"""Experiment scenarios: a topology, its originations, and a schedule of events.

A :class:`Scenario` fixes *what breaks where*: the topology, the destination
AS (which originates the studied prefix), and ``events`` — one schedule of
fault injectors (:mod:`repro.net.failures` and
:class:`~repro.bgp.aggregation.AggregationCycle`), each timed by its ``at``
as an offset from the failure instant, so ``0.0`` is the instant itself.
The paper's §4.1 events are **Tdown** (the destination becomes unreachable —
the origin withdraws: :class:`~repro.net.failures.OriginWithdrawal`) and
**Tlong** (one transit link fails: :class:`~repro.net.failures.LinkFailure`;
the destination stays reachable over less-preferred paths).

Three *churn* events extend the family beyond the paper's single-failure
model, exercising the session lifecycle:

* **Treset** (:class:`~repro.net.failures.SessionReset`) — the transport
  session on one link is reset (link stays up); both speakers purge,
  re-establish, and re-exchange full tables.
* **Tcrash** (:class:`~repro.net.failures.NodeCrash`) — a whole router
  crashes (queued messages, timers, RIBs lost), optionally restarting cold
  after ``restart_after`` seconds.
* **Tflap** (:class:`~repro.net.failures.LinkFlap`) — one link fails and
  recovers ``count`` times with period ``period``, driving repeated
  withdraw/re-advertise waves.

**Tagg** (:class:`~repro.bgp.aggregation.AggregationCycle`) collapses a
prefix population into its covers and later re-splits it.

The module provides the paper's concrete scenario families —
Clique + Tdown, B-Clique + Tlong, Internet-like graphs with both events —
plus churn and aggregation variants of the clique and B-Clique setups.  Each
family builds a one-entry schedule; a schedule may hold any number of entries
(a Tlong during a Tdown, a flap under an aggregation), or none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..bgp.aggregation import (
    AggregationCycle,
    population_originations,
    prefix_population,
)
from ..errors import ConfigError, TopologyError
from ..net import (
    EventKind,
    LinkFailure,
    LinkFlap,
    NodeCrash,
    OriginWithdrawal,
    SessionReset,
)
from ..topology import (
    Topology,
    b_clique,
    choose_destination,
    choose_failure_link,
    clique,
    internet_like,
    provider_load,
)

DEFAULT_PREFIX = "dest"
"""The prefix name used by all built-in scenarios."""


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experiment setup.

    ``events`` is the schedule: fault injectors whose ``at`` is an offset
    from the failure instant, which the runner fixes after warm-up.  Every
    entry checks itself against the scenario on construction
    (``check(scenario)``), so a scenario that exists is one that can run.

    **Originations.**  Warm-up originates each ``(node, prefix)`` pair of
    ``originations``; ``destination``/``prefix`` name the pair the
    per-prefix metrics focus on, and must appear in the list.  Left empty,
    it is filled with that one pair, so the single-prefix scenario is the
    N = 1 case of the multi-prefix one and the rest of the code sees one
    form.
    """

    name: str
    topology: Topology
    destination: int
    prefix: str = DEFAULT_PREFIX
    originations: Tuple[Tuple[int, str], ...] = ()
    events: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if not self.topology.has_node(self.destination):
            raise ConfigError(
                f"destination {self.destination} not in topology {self.topology.name!r}"
            )
        if not self.originations:
            object.__setattr__(self, "originations", ((self.destination, self.prefix),))
        for node, prefix in self.originations:
            if not self.topology.has_node(node):
                raise ConfigError(
                    f"origination node {node} (for {prefix!r}) not in topology"
                )
        if (self.destination, self.prefix) not in self.originations:
            raise ConfigError(
                f"originations must include the focus pair "
                f"({self.destination}, {self.prefix!r})"
            )
        if len(set(self.originations)) != len(self.originations):
            raise ConfigError("originations contain duplicates")
        for entry in self.events:
            if entry.at < 0:
                raise ConfigError(
                    f"event offsets must be >= 0, got {entry.at} for "
                    f"{type(entry).__name__}"
                )
            entry.check(self)

    @property
    def effective_originations(self) -> Tuple[Tuple[int, str], ...]:
        """Alias of ``originations``, kept for ``benchmarks/e2e``."""
        return self.originations

    def origins_by_prefix(self) -> dict:
        """``prefix -> (origin nodes...)`` over the originations."""
        table: dict = {}
        for node, prefix in self.originations:
            table.setdefault(prefix, []).append(node)
        return {prefix: tuple(sorted(nodes)) for prefix, nodes in table.items()}

    @property
    def needs_sessions(self) -> bool:
        """Whether any scheduled event is only detected or repaired by the
        keepalive/hold-timer session layer (Treset, Tcrash, Tflap)."""
        return any(entry.needs_sessions for entry in self.events)

    # Read-only views of a one-entry schedule, ``None`` for any other; the
    # staged replica in ``benchmarks/e2e`` reads them.

    def _sole(self, attribute: str):
        if len(self.events) != 1:
            return None
        return getattr(self.events[0], attribute, None)

    @property
    def event(self) -> Optional[EventKind]:
        return self._sole("kind")

    @property
    def failed_link(self) -> Optional[Tuple[int, int]]:
        u = self._sole("u")
        return None if u is None else (u, self._sole("v"))

    @property
    def flap_period(self) -> Optional[float]:
        return self._sole("period")

    @property
    def flap_count(self) -> Optional[int]:
        return self._sole("count")

    @property
    def agg_blocks(self):
        return self._sole("blocks")

    @property
    def agg_hold(self) -> Optional[float]:
        return self._sole("hold")


# ----------------------------------------------------------------------
# The paper's scenario families
# ----------------------------------------------------------------------


def tdown_clique(n: int) -> Scenario:
    """Tdown in an n-clique: the classic convergence worst case."""
    return custom_tdown(clique(n), 0, name=f"tdown-clique-{n}")


def tlong_bclique(n: int) -> Scenario:
    """Tlong in a size-n B-Clique: fail the edge-to-core link (0, n).

    "AS 0 is chosen as the destination AS and the link between AS 0 and n is
    failed during simulation to induce a Tlong event."
    """
    return custom_tlong(b_clique(n), 0, (0, n), name=f"tlong-bclique-{n}")


def tdown_internet(n: int, seed: int = 0) -> Scenario:
    """Tdown in an Internet-like graph; destination drawn from the stubs."""
    topo = internet_like(n, seed=seed)
    destination = choose_destination(topo, seed=seed)
    return custom_tdown(topo, destination, name=f"tdown-internet-{n}-s{seed}")


def tlong_internet(n: int, seed: int = 0) -> Scenario:
    """Tlong in an Internet-like graph: fail the destination's primary link.

    Candidate destinations are low-degree nodes whose link can fail without
    disconnecting them (Tlong's definition).  Among the eight
    lowest-degree qualifying nodes, the one with the most *dominant* primary
    provider is selected — failing a dominant primary is the event the paper
    studies ("forces the rest of the network to use less preferred paths");
    failing a balanced provider's link converges almost silently.  The
    ``seed`` determines the topology and breaks remaining ties.
    """
    topo = internet_like(n, seed=seed)
    ranked = sorted(topo.nodes, key=lambda x: (topo.degree(x), x))
    best: Optional[Tuple[float, int, Tuple[int, int]]] = None
    examined = 0
    for destination in ranked:
        if topo.degree(destination) < 2:
            continue
        try:
            failed = choose_failure_link(topo, destination, seed=seed)
        except TopologyError:
            continue
        examined += 1
        loads = provider_load(topo, destination)
        total = sum(loads.values()) or 1
        dominance = loads[failed[1]] / total
        key = (dominance, -destination)
        if best is None or key > best[0:2]:
            best = (dominance, -destination, failed)
        if examined >= 8:
            break
    if best is None:
        raise ConfigError(f"no Tlong-capable destination in internet_like({n}, {seed})")
    destination = -best[1]
    return custom_tlong(
        topo, destination, best[2], name=f"tlong-internet-{n}-s{seed}"
    )


# ----------------------------------------------------------------------
# Churn scenario families (session lifecycle extensions)
# ----------------------------------------------------------------------


def treset_clique(n: int) -> Scenario:
    """Treset in an n-clique: reset one session, watch the re-exchange.

    The reset session is (0, 1) — destination-adjacent, so the reset peer
    must re-learn its best (direct) route to the prefix.
    """
    return Scenario(
        name=f"treset-clique-{n}",
        topology=clique(n),
        destination=0,
        events=(SessionReset(0, 1, at=0.0),),
    )


def tcrash_clique(n: int, restart_after: Optional[float] = 30.0) -> Scenario:
    """Tcrash in an n-clique: crash transit AS 1, optionally restart it.

    The destination stays reachable (every survivor keeps a direct link to
    AS 0), so the interesting dynamics are the withdraw wave at the crash
    and the cold re-learning at the restart.
    """
    return Scenario(
        name=f"tcrash-clique-{n}",
        topology=clique(n),
        destination=0,
        events=(NodeCrash(1, at=0.0, restart_after=restart_after),),
    )


def tagg_clique(
    n: int,
    prefixes: int,
    seed: int = 0,
    origins: int = 1,
    hold: float = 30.0,
) -> Scenario:
    """Tagg in an n-clique: a prefix population aggregates and re-splits.

    ``prefixes`` specifics (a seeded population across the first
    ``origins`` nodes, blocks of four under one cover each) are
    announced at warm-up.  At the event, every origin collapses its blocks
    into covers; ``hold`` seconds later they deaggregate back.  The focus
    pair for legacy per-prefix metrics is the first block's first specific.
    """
    if not 1 <= origins <= n:
        raise ConfigError(f"origin count must be in [1, {n}], got {origins}")
    blocks = prefix_population(prefixes, list(range(origins)), seed=seed)
    originations = tuple(population_originations(blocks))
    focus = blocks[0]
    return Scenario(
        name=f"tagg-clique-{n}-p{prefixes}-o{origins}-s{seed}",
        topology=clique(n),
        destination=focus.origin,
        prefix=focus.specifics[0],
        originations=originations,
        events=(AggregationCycle(tuple(blocks), at=0.0, hold=hold),),
    )


def tflap_bclique(n: int, period: float, count: int = 3) -> Scenario:
    """Tflap in a size-n B-Clique: flap the edge-to-core link (0, n).

    The same link Tlong fails once, now failing and recovering ``count``
    times ``period`` seconds apart — the loop-inducing event repeated
    faster than (or slower than) the network can converge.
    """
    return Scenario(
        name=f"tflap-bclique-{n}-p{period}",
        topology=b_clique(n),
        destination=0,
        events=(LinkFlap(0, n, at=0.0, period=period, count=count),),
    )


# ----------------------------------------------------------------------
# Trial adapters: (x, seed) -> Scenario, module-level so they pickle
# ----------------------------------------------------------------------
#
# Sweeps call ``make_scenario(x, seed)``; the family constructors above
# take domain parameters (clique size, flap period...).  These adapters fix
# the translation once, at module scope, so parallel sweeps can pickle them
# to worker processes by reference.  Fixed parameters (a constant topology
# size under an MRAI sweep, a flap count) are bound with
# ``functools.partial(adapter, size=...)``.


def clique_tdown_trial(x: float, seed: int) -> Scenario:
    """x is the clique size (Figures 4a, 6a, 8a/8b, 9a/9b...)."""
    return tdown_clique(int(x))


def bclique_tlong_trial(x: float, seed: int) -> Scenario:
    """x is the B-Clique size (Figures 4b, 6b)."""
    return tlong_bclique(int(x))


def internet_tdown_trial(x: float, seed: int) -> Scenario:
    """x is the Internet-like graph size; the seed varies the graph."""
    return tdown_internet(int(x), seed=seed)


def internet_tlong_trial(x: float, seed: int) -> Scenario:
    """x is the Internet-like graph size; the seed varies the graph."""
    return tlong_internet(int(x), seed=seed)


def bclique_tflap_trial(x: float, seed: int, *, size: int, count: int = 3) -> Scenario:
    """x is the flap period over a fixed-size B-Clique (churn sweeps)."""
    return tflap_bclique(size, period=x, count=count)


def clique_tagg_trial(
    x: float,
    seed: int,
    *,
    size: int,
    origins: int = 1,
    hold: float = 30.0,
) -> Scenario:
    """x is the prefix-population size over a fixed-size clique (Tagg)."""
    return tagg_clique(
        size, prefixes=int(x), seed=seed, origins=origins, hold=hold
    )


def clique_treset_trial(x: float, seed: int) -> Scenario:
    """x is the clique size; the (0, 1) session is reset."""
    return treset_clique(int(x))


def clique_tcrash_trial(x: float, seed: int) -> Scenario:
    """x is the clique size; transit AS 1 crashes and restarts 30 s later."""
    return tcrash_clique(int(x))


def custom_tdown(topology: Topology, destination: int, name: str = "") -> Scenario:
    """Tdown on a user-supplied topology: the destination withdraws."""
    return Scenario(
        name=name or f"tdown-{topology.name}",
        topology=topology,
        destination=destination,
        events=(OriginWithdrawal(destination, DEFAULT_PREFIX, at=0.0),),
    )


def custom_tlong(
    topology: Topology,
    destination: int,
    failed_link: Tuple[int, int],
    name: str = "",
) -> Scenario:
    """Tlong on a user-supplied topology and link."""
    u, v = failed_link
    return Scenario(
        name=name or f"tlong-{topology.name}",
        topology=topology,
        destination=destination,
        events=(LinkFailure(u, v, at=0.0),),
    )
