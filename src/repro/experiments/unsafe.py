"""Deliberately unsafe policy scenarios: the classic divergence gadgets.

The paper's loops are *transient*: under shortest-path policy the protocol
provably converges, so every loop dies.  This module ships the canonical
counterexamples from the stability literature — policy configurations
whose loops need *not* die — so the static analyzer
(:mod:`repro.analysis.stability`) and the dynamic oscillation runner
(:mod:`repro.experiments.oscillation`) have ground truth in both
directions:

``disagree()``
    Griffin & Wilfong's DISAGREE: two nodes that each prefer the route
    through the other.  It has two stable states and converges under
    MRAI-staggered (asynchronous) timing, yet its dispute wheel admits a
    divergent execution that synchronous timing realizes — the textbook
    demonstration that a wheel makes divergence *possible*, not certain.
``bad_gadget()``
    The BAD-GADGET: three rim nodes around the destination, each
    preferring its clockwise neighbor's route.  It has **no** stable
    solution, so the protocol oscillates forever — the persistent-loop
    contrast to the paper's transient loops.
``wedgie()``
    A BGP wedgie (RFC 4264 shape): a primary/backup configuration with
    two stable states.  The intended state survives warm-up, but a single
    flap of the primary link can leave the network *wedged* in the
    unintended state after the link recovers.

Each gadget is a :class:`PolicyScenario`: a plain :class:`Scenario` plus a
picklable per-node policy factory built on
:class:`~repro.bgp.policy.PathRankPolicy` (the Stable Paths Problem's
ranked-path-list form).  DISAGREE and BAD-GADGET schedule no event — their
dynamics start with the first announcement wave — and the wedgie schedules
its one flap.  :func:`stability_suite` bundles them with the
safe baseline scenarios into the named suite that ``python -m repro
stability`` certifies and CI pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..bgp import (
    GaoRexfordPolicy,
    PathRankPolicy,
    RoutingPolicy,
    ShortestPathPolicy,
    relationships_from_tiers,
)
from ..net import LinkFlap
from ..topology import InternetShape, Topology, internet_like_with_tiers
from .scenarios import (
    Scenario,
    custom_tdown,
    tdown_clique,
    tdown_internet,
    tlong_bclique,
)


class RankedPolicyFactory:
    """Picklable per-node :class:`PathRankPolicy` assignment.

    Nodes absent from ``rankings`` (typically the destination, which
    originates locally) get the default shortest-path policy.
    """

    def __init__(self, rankings: Mapping[int, Sequence[Sequence[int]]]) -> None:
        self._rankings: Dict[int, Tuple[Tuple[int, ...], ...]] = {
            node: tuple(tuple(int(n) for n in path) for path in paths)
            for node, paths in sorted(rankings.items())
        }

    def __call__(self, node: int) -> RoutingPolicy:
        ranked = self._rankings.get(node)
        if ranked is None:
            return ShortestPathPolicy()
        return PathRankPolicy(node, ranked)


class TieredGaoRexfordFactory:
    """Picklable Gao-Rexford assignment derived from generator tiers."""

    def __init__(self, topology: Topology, tiers: Dict[int, str]) -> None:
        self._relationships = relationships_from_tiers(topology, tiers)

    def __call__(self, node: int) -> RoutingPolicy:
        return GaoRexfordPolicy(self._relationships[node])


@dataclass(frozen=True)
class PolicyScenario:
    """A scenario bound to its (possibly ``None``) policy assignment.

    This is the unit the stability tooling works on: the static certifier
    consumes ``(scenario, policy_factory)``, and the oscillation runner
    simulates exactly the same pair — so a verdict and a measurement are
    always about the same object.
    """

    scenario: Scenario
    policy_factory: Optional[object]  # PolicyFactory; object keeps it picklable
    summary: str

    @property
    def name(self) -> str:
        return self.scenario.name


# ----------------------------------------------------------------------
# The gadgets
# ----------------------------------------------------------------------


def disagree() -> PolicyScenario:
    """DISAGREE: nodes 1 and 2 each prefer the route through the other.

    Stable states exist (two of them: one node direct, the other riding
    it), so the wheel the analyzer finds is not a proof of divergence —
    it is a proof that a divergent *execution* exists.  The simulator
    shows both: with MRAI staggering the rounds the system settles into a
    stable state within a handful of updates, while with ``mrai=0`` the
    two nodes can stay phase-locked, swapping preferences forever — the
    textbook demonstration that a wheel is necessary for divergence but
    convergence remains timing-dependent.
    """
    topology = Topology.from_edges([(0, 1), (0, 2), (1, 2)], name="disagree")
    scenario = Scenario(
        name="disagree",
        topology=topology,
        destination=0,
    )
    factory = RankedPolicyFactory({
        1: ((1, 2, 0), (1, 0)),
        2: ((2, 1, 0), (2, 0)),
    })
    return PolicyScenario(
        scenario=scenario,
        policy_factory=factory,
        summary=(
            "two nodes each preferring the path through the other; has two "
            "stable states but its dispute wheel admits a divergent "
            "execution (reached under synchronous timing)"
        ),
    )


def bad_gadget() -> PolicyScenario:
    """BAD-GADGET: the canonical no-stable-solution instance.

    Rim nodes 1, 2, 3 around destination 0; each rim node prefers the
    path through its clockwise successor over its own direct path.  No
    assignment of paths is stable, so update activity — and the
    forwarding loops it drags around the rim — never ends.
    """
    topology = Topology.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)], name="bad-gadget"
    )
    scenario = Scenario(
        name="bad-gadget",
        topology=topology,
        destination=0,
    )
    factory = RankedPolicyFactory({
        1: ((1, 2, 0), (1, 0)),
        2: ((2, 3, 0), (2, 0)),
        3: ((3, 1, 0), (3, 0)),
    })
    return PolicyScenario(
        scenario=scenario,
        policy_factory=factory,
        summary=(
            "three rim nodes each preferring the clockwise route; no stable "
            "solution exists, so oscillation is persistent"
        ),
    )


def wedgie() -> PolicyScenario:
    """A BGP wedgie: primary/backup intent with two stable states.

    Destination 0 is dual-homed: primary provider 3 (direct link) and
    backup provider 1, who honors the backup intent by ranking its long
    path through 2 and 3 *above* its direct customer link.  Node 2
    prefers routes via 1 over routes via 3.  Intended state: everyone
    reaches 0 through 3, and the 0–1 link idles.  After the primary link
    (0, 3) fails and recovers (one 20 s flap), the system can come back wedged
    — 2 riding 1's direct path, 1 unable to return to the long path —
    which is stable and violates the routing intent.
    """
    topology = Topology.from_edges(
        [(0, 1), (0, 3), (1, 2), (2, 3)], name="bgp-wedgie"
    )
    scenario = Scenario(
        name="bgp-wedgie",
        topology=topology,
        destination=0,
        events=(LinkFlap(0, 3, at=0.0, period=20.0, count=1),),
    )
    factory = RankedPolicyFactory({
        1: ((1, 2, 3, 0), (1, 0)),
        2: ((2, 1, 0), (2, 3, 0)),
        3: ((3, 0), (3, 2, 1, 0)),
    })
    return PolicyScenario(
        scenario=scenario,
        policy_factory=factory,
        summary=(
            "primary/backup dual-homing with two stable states; one flap of "
            "the primary link can leave routing wedged in the wrong one"
        ),
    )


# ----------------------------------------------------------------------
# The certified suite
# ----------------------------------------------------------------------


def _gao_rexford_internet() -> PolicyScenario:
    """A tiered 24-node Internet-like graph under Gao-Rexford policies (safe).

    Mirrors the convergence test's setup: fully-meshed tier-1 core (peer
    routes never re-export to peers, so a partial mesh can legitimately
    strand core nodes) and a stub-AS destination.
    """
    shape = InternetShape(core_mesh_probability=1.0)
    topology, tiers = internet_like_with_tiers(24, seed=3, shape=shape)
    destination = max(topology.nodes)  # a stub AS originates
    scenario = custom_tdown(
        topology, destination, name="gao-rexford-internet-24-s3"
    )
    return PolicyScenario(
        scenario=scenario,
        policy_factory=TieredGaoRexfordFactory(topology, tiers),
        summary="tiered AS graph under Gao-Rexford policies (structurally safe)",
    )


def stability_suite() -> Tuple[PolicyScenario, ...]:
    """The bundled scenarios the stability CLI certifies, in fixed order.

    Safe baselines first (the paper's families plus the Gao-Rexford
    layer), then the three gadgets.  CI pins the expected verdicts in
    ``benchmarks/baselines/STABILITY_verdicts.json``.
    """
    shortest = (
        tdown_clique(5),
        tlong_bclique(4),
        tdown_internet(24, seed=0),
    )
    entries = [
        PolicyScenario(
            scenario=scenario,
            policy_factory=None,
            summary="paper baseline under shortest-path policy (safe)",
        )
        for scenario in shortest
    ]
    entries.append(_gao_rexford_internet())
    entries.extend((disagree(), bad_gadget(), wedgie()))
    return tuple(entries)
