"""Static policy-stability analysis: dispute wheels and safety certificates.

The paper studies *transient* loops: under its shortest-path policy every
loop eventually dies because the protocol provably converges.  General
path-vector policies have no such guarantee — Griffin, Shepherd & Wilfong's
Stable Paths Problem (SPP) formulation shows that conflicting preferences
can oscillate forever, and that the combinatorial witness of such a
conflict is a **dispute wheel**: a cycle of nodes each preferring the route
*through the next rim node* over its own direct ("spoke") route.  No
dispute wheel ⇒ the system is safe (converges from every state); a wheel is
the structure every divergent instance contains.

This module decides the question **statically** — no event is ever
scheduled:

* :func:`extract_policy_graph` walks a topology plus per-node
  :class:`~repro.bgp.policy.RoutingPolicy` objects and materializes, for
  one destination, every *permitted path*: a simple path that survives the
  export filter at each hop and the import filter at its owner, ranked by
  the owner's ``preference_key`` (the same hook the live decision process
  uses, so the static lattice and the simulator can never disagree).
  Paths are interned :class:`~repro.bgp.path.AsPath` instances.
* :func:`find_dispute_wheel` searches the ranked lattice for a rim cycle
  and returns a machine-readable :class:`DisputeWheel` certificate naming
  the rim nodes, spoke paths, rim paths, and both rankings at every rim
  node.  Certificates are self-checking (:meth:`DisputeWheel.validate`).
* :func:`certify` / :func:`certify_scenario` combine the wheel search with
  two structural short-cuts that scale past exhaustive path enumeration:
  shortest-path policies can never build a wheel (rim edges would have to
  sum to non-positive length), and Gao-Rexford policies are safe whenever
  the relationship assignment is pairwise-consistent and the
  provider→customer digraph is acyclic (the classic Gao & Rexford
  conditions).  The verdict is ``SAFE``, ``UNSAFE`` (with the wheel as
  certificate), or ``UNKNOWN`` when enumeration or search was truncated
  by :class:`SearchLimits`.

The analyzer's contract with the simulator: a ``SAFE`` verdict means every
simulation of the scenario quiesces; an ``UNSAFE`` verdict names a dispute
wheel, the structure behind persistent oscillation (necessary for
divergence — DISAGREE-style instances carry a wheel yet happen to converge
under asynchronous timing, which is exactly the distinction the
``repro.experiments.oscillation`` runner measures dynamically).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..bgp.path import AsPath
from ..bgp.policy import RoutingPolicy, ShortestPathPolicy
from ..bgp.relationships import GaoRexfordPolicy, Relationship
from ..bgp.route import Route, local_route
from ..errors import AnalysisError, ProtocolError
from ..topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..experiments.scenarios import Scenario

PolicyFactory = Callable[[int], RoutingPolicy]


class Verdict(enum.Enum):
    """The certifier's answer for one (topology, policies, destination)."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


#: Permitted paths enumerated across all nodes before the lattice is
#: truncated (a :class:`SearchLimits` cap that no caller varies).
MAX_PATHS_TOTAL = 8192


@dataclass(frozen=True)
class SearchLimits:
    """Caps keeping the exhaustive analysis bounded on large instances.

    Exceeding any cap (these and :data:`MAX_PATHS_TOTAL`) never produces a
    wrong answer — it downgrades the verdict to ``UNKNOWN`` (unless a
    wheel was already found, which stays valid evidence regardless of
    truncation).
    """

    max_paths_per_node: int = 128
    max_search_steps: int = 250_000

    def __post_init__(self) -> None:
        if self.max_paths_per_node < 1:
            raise AnalysisError("max_paths_per_node must be >= 1")
        if self.max_search_steps < 1:
            raise AnalysisError("max_search_steps must be >= 1")


@dataclass(frozen=True)
class PermittedPath:
    """One permitted path at one node, in the paper's node notation.

    ``nodes`` starts at the owning node and ends at the destination —
    exactly :meth:`BgpSpeaker.full_path`'s shape.  ``key`` is the owner's
    ``preference_key`` for the corresponding route (smaller = preferred),
    ``rank`` the path's position in the owner's ranked list (0 = best).
    """

    nodes: Tuple[int, ...]
    path: AsPath
    key: Tuple
    rank: int

    def __repr__(self) -> str:
        return f"PermittedPath[{self.path!r} rank={self.rank}]"


@dataclass(frozen=True)
class PolicyGraph:
    """The ranked permitted-path lattice for one destination.

    ``permitted`` maps each node to its permitted paths, best-first.  A
    node with no entry (or an empty tuple) has no permitted path to the
    destination under the configured policies.
    """

    destination: int
    prefix: str
    permitted: Mapping[int, Tuple[PermittedPath, ...]]
    complete: bool
    truncated_nodes: Tuple[int, ...] = ()

    @property
    def total_paths(self) -> int:
        return sum(len(paths) for paths in self.permitted.values())

    def paths_of(self, node: int) -> Tuple[PermittedPath, ...]:
        return self.permitted.get(node, ())

    def lookup(self, node: int, nodes: Tuple[int, ...]) -> Optional[PermittedPath]:
        """The entry for node-path ``nodes`` at ``node``, or ``None``."""
        for entry in self.permitted.get(node, ()):
            if entry.nodes == nodes:
                return entry
        return None


@dataclass(frozen=True)
class DisputeWheel:
    """A Griffin–Shepherd–Wilfong dispute wheel, as a checkable certificate.

    For every rim index ``i`` (cyclically): ``spokes[i]`` is rim node
    ``rim[i]``'s direct path to the destination, ``wheel_paths[i]`` its
    path *through* ``rim[i+1]`` whose suffix from ``rim[i+1]`` equals
    ``spokes[i+1]``, and ``rim[i]`` ranks the wheel path at least as high
    as its spoke (``wheel_ranks[i] <= spoke_ranks[i]`` in 0-is-best rank
    order).  The cyclic conflict means no assignment of spokes is stable:
    each rim node would rather ride the wheel.
    """

    rim: Tuple[int, ...]
    spokes: Tuple[AsPath, ...]
    wheel_paths: Tuple[AsPath, ...]
    spoke_ranks: Tuple[int, ...]
    wheel_ranks: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.rim)

    def rim_paths(self) -> Tuple[Tuple[int, ...], ...]:
        """The rim segments ``R_i``: ``rim[i] .. rim[i+1]`` inclusive."""
        segments: List[Tuple[int, ...]] = []
        for index, wheel_path in enumerate(self.wheel_paths):
            pivot = self.rim[(index + 1) % len(self.rim)]
            nodes = wheel_path.ases
            cut = nodes.index(pivot)
            segments.append(nodes[: cut + 1])
        return tuple(segments)

    def validate(self, graph: PolicyGraph) -> None:
        """Re-derive every wheel condition from ``graph``; raise on any lie.

        This makes the certificate self-checking: a test (or a skeptical
        operator) can confirm UNSAFE evidence without trusting the search.
        """
        size = len(self.rim)
        if size < 2:
            raise AnalysisError(f"dispute wheel needs >= 2 rim nodes: {self.rim}")
        if len(set(self.rim)) != size:
            raise AnalysisError(f"rim nodes must be distinct: {self.rim}")
        for index in range(size):
            node = self.rim[index]
            succ = self.rim[(index + 1) % size]
            spoke = graph.lookup(node, self.spokes[index].ases)
            wheel = graph.lookup(node, self.wheel_paths[index].ases)
            if spoke is None or wheel is None:
                raise AnalysisError(
                    f"wheel cites a path not permitted at node {node}"
                )
            if spoke.rank != self.spoke_ranks[index]:
                raise AnalysisError(f"spoke rank mismatch at node {node}")
            if wheel.rank != self.wheel_ranks[index]:
                raise AnalysisError(f"wheel-path rank mismatch at node {node}")
            if wheel.nodes == spoke.nodes:
                raise AnalysisError(
                    f"wheel path equals spoke at node {node}: {spoke.nodes}"
                )
            if not wheel.key <= spoke.key:
                raise AnalysisError(
                    f"node {node} does not prefer {wheel.nodes} over "
                    f"{spoke.nodes}"
                )
            suffix = self.wheel_paths[index].suffix_from(succ)
            if suffix is None or suffix.ases != self.spokes[(index + 1) % size].ases:
                raise AnalysisError(
                    f"wheel path at node {node} does not ride through "
                    f"{succ}'s spoke"
                )

    def to_json(self) -> dict:
        return {
            "rim": list(self.rim),
            "spokes": [list(path.ases) for path in self.spokes],
            "wheel_paths": [list(path.ases) for path in self.wheel_paths],
            "rim_paths": [list(segment) for segment in self.rim_paths()],
            "spoke_ranks": list(self.spoke_ranks),
            "wheel_ranks": list(self.wheel_ranks),
        }

    def render(self) -> str:
        lines = [f"dispute wheel, {self.size} rim nodes: {list(self.rim)}"]
        for index in range(self.size):
            lines.append(
                f"  node {self.rim[index]}: spoke {self.spokes[index]!r} "
                f"(rank {self.spoke_ranks[index]}) < wheel "
                f"{self.wheel_paths[index]!r} (rank {self.wheel_ranks[index]})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class StabilityReport:
    """One scenario's static-stability verdict, plus its evidence."""

    name: str
    destination: int
    prefix: str
    verdict: Verdict
    method: str
    detail: str
    wheel: Optional[DisputeWheel] = None
    nodes: int = 0
    paths: int = 0
    complete: bool = True

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "destination": self.destination,
            "prefix": self.prefix,
            "verdict": self.verdict.value,
            "method": self.method,
            "detail": self.detail,
            "nodes": self.nodes,
            "paths": self.paths,
            "complete": self.complete,
        }
        if self.wheel is not None:
            payload["wheel"] = self.wheel.to_json()
        return payload

    def render(self) -> str:
        lines = [
            f"{self.name}: {self.verdict.value.upper()} "
            f"[{self.method}] — {self.detail}"
        ]
        if self.wheel is not None:
            lines.extend("  " + line for line in self.wheel.render().splitlines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Policy-graph extraction
# ----------------------------------------------------------------------


def _route_for(
    prefix: str, nodes: Tuple[int, ...], policy: RoutingPolicy
) -> Route:
    """The stored :class:`Route` corresponding to node-path ``nodes``.

    ``nodes[0]`` owns the route; the stored path is what its neighbor
    advertised — everything after the owner — with the policy's LOCAL_PREF
    hook applied, exactly as :meth:`BgpSpeaker._apply_run` does.
    """
    if len(nodes) == 1:
        return local_route(prefix)
    stored = AsPath.of(nodes[1:])
    provisional = Route(prefix=prefix, path=stored, next_hop=nodes[1])
    local_pref = policy.local_pref(nodes[1], provisional)
    if local_pref == provisional.local_pref:
        return provisional
    return Route(
        prefix=prefix, path=stored, next_hop=nodes[1], local_pref=local_pref
    )


def extract_policy_graph(
    topology: Topology,
    destination: int,
    policies: Mapping[int, RoutingPolicy],
    prefix: str = "dest",
    limits: SearchLimits = SearchLimits(),
) -> PolicyGraph:
    """Materialize the ranked permitted-path lattice for ``destination``.

    Propagation mirrors announcement flow: starting from the destination's
    local origination, a permitted path at ``u`` extends to neighbor ``v``
    when ``v`` is not already on it (path-based poison reverse), ``u``'s
    policy exports it to ``v``, and ``v``'s policy imports it.  Every
    permitted path is therefore built from a permitted path at its second
    node, so the lattice is closed under suffixes — the property the wheel
    search relies on.

    Purely static: policies are only *queried*; nothing is scheduled.
    """
    if not topology.has_node(destination):
        raise AnalysisError(f"destination {destination} not in topology")
    found: Dict[int, Dict[Tuple[int, ...], Route]] = {
        node: {} for node in topology.nodes
    }
    origin_path = (destination,)
    found[destination][origin_path] = local_route(prefix)
    frontier: List[Tuple[int, ...]] = [origin_path]
    complete = True
    truncated: List[int] = []
    total = 1
    while frontier:
        next_frontier: List[Tuple[int, ...]] = []
        for nodes in frontier:
            owner = nodes[0]
            route = found[owner][nodes]
            for neighbor in topology.neighbors(owner):
                if neighbor in nodes:
                    continue  # would loop; the receiver poison-reverses it
                if not policies[owner].accept_export(neighbor, route):
                    continue
                extended = (neighbor,) + nodes
                if extended in found[neighbor]:
                    continue
                imported = _route_for(prefix, extended, policies[neighbor])
                if not policies[neighbor].accept_import(owner, imported):
                    continue
                if (
                    len(found[neighbor]) >= limits.max_paths_per_node
                    or total >= MAX_PATHS_TOTAL
                ):
                    complete = False
                    if neighbor not in truncated:
                        truncated.append(neighbor)
                    continue
                found[neighbor][extended] = imported
                total += 1
                next_frontier.append(extended)
        frontier = sorted(next_frontier)
    permitted: Dict[int, Tuple[PermittedPath, ...]] = {}
    for node in topology.nodes:
        entries = found[node]
        ranked = sorted(
            entries.items(),
            key=lambda item: (policies[item[0][0]].preference_key(item[1]), item[0]),
        )
        permitted[node] = tuple(
            PermittedPath(
                nodes=nodes,
                path=AsPath.of(nodes),
                key=tuple(policies[node].preference_key(route)),
                rank=rank,
            )
            for rank, (nodes, route) in enumerate(ranked)
        )
    return PolicyGraph(
        destination=destination,
        prefix=prefix,
        permitted=permitted,
        complete=complete,
        truncated_nodes=tuple(sorted(truncated)),
    )


# ----------------------------------------------------------------------
# Dispute-wheel search
# ----------------------------------------------------------------------


@dataclass
class _WheelSearch:
    """Bounded DFS over (rim node, spoke) states for a distinct-node cycle."""

    graph: PolicyGraph
    limits: SearchLimits
    steps: int = 0
    exhausted: bool = field(default=False)

    def arcs_from(
        self, node: int, spoke: PermittedPath
    ) -> List[Tuple[int, Tuple[int, ...], PermittedPath]]:
        """All rim arcs out of state ``(node, spoke)``.

        An arc rides a permitted path ``P != spoke`` ranked at least as
        high as the spoke, pivoting at any intermediate node ``w`` whose
        suffix of ``P`` becomes ``w``'s spoke — yielding
        ``(w, suffix_nodes, wheel_path_entry)``.
        """
        arcs: List[Tuple[int, Tuple[int, ...], PermittedPath]] = []
        for candidate in self.graph.paths_of(node):
            if candidate.nodes == spoke.nodes:
                continue
            if not candidate.key <= spoke.key:
                continue
            # Pivot at every intermediate node (never the owner or the
            # destination — the destination has no non-trivial spoke).
            for cut in range(1, len(candidate.nodes) - 1):
                pivot = candidate.nodes[cut]
                arcs.append((pivot, candidate.nodes[cut:], candidate))
        return arcs

    def find(self) -> Optional[DisputeWheel]:
        states: List[Tuple[int, PermittedPath]] = []
        for node in sorted(self.graph.permitted):
            for entry in self.graph.paths_of(node):
                states.append((node, entry))
        for start_node, start_spoke in states:
            wheel = self._dfs(start_node, start_spoke)
            if wheel is not None:
                return wheel
            if self.exhausted:
                return None
        return None

    def _dfs(
        self, start_node: int, start_spoke: PermittedPath
    ) -> Optional[DisputeWheel]:
        # Stack frames: (node, spoke, arc iterator); trail holds the wheel
        # path chosen to *enter* each frame after the first.
        frames = [(start_node, start_spoke, iter(self.arcs_from(start_node, start_spoke)))]
        trail: List[PermittedPath] = []
        on_rim = {start_node}
        while frames:
            node, spoke, arc_iter = frames[-1]
            self.steps += 1
            if self.steps > self.limits.max_search_steps:
                self.exhausted = True
                return None
            advanced = False
            for pivot, suffix_nodes, wheel_path in arc_iter:
                if pivot == start_node and suffix_nodes == start_spoke.nodes:
                    # Cycle closed: frames + this arc are the wheel.
                    rim = tuple(frame[0] for frame in frames)
                    spokes = tuple(frame[1] for frame in frames)
                    wheels = tuple(trail) + (wheel_path,)
                    return DisputeWheel(
                        rim=rim,
                        spokes=tuple(entry.path for entry in spokes),
                        wheel_paths=tuple(entry.path for entry in wheels),
                        spoke_ranks=tuple(entry.rank for entry in spokes),
                        wheel_ranks=tuple(entry.rank for entry in wheels),
                    )
                if pivot in on_rim:
                    continue
                suffix_entry = self.graph.lookup(pivot, suffix_nodes)
                if suffix_entry is None:  # pragma: no cover - lattice is
                    continue  # suffix-closed by construction
                on_rim.add(pivot)
                trail.append(wheel_path)
                frames.append(
                    (pivot, suffix_entry, iter(self.arcs_from(pivot, suffix_entry)))
                )
                advanced = True
                break
            if not advanced:
                frames.pop()
                if frames:
                    on_rim.discard(node)
                    trail.pop()
        return None


def find_dispute_wheel(graph: PolicyGraph) -> Optional[DisputeWheel]:
    """Search ``graph`` for a dispute wheel; ``None`` when none was found.

    The returned wheel always satisfies :meth:`DisputeWheel.validate`.
    A ``None`` with complete enumeration and an un-exhausted step budget
    is a *proof* of no-wheel (and hence safety); callers needing to
    distinguish "proved absent" from "gave up" should use :func:`certify`.
    """
    wheel = _WheelSearch(graph=graph, limits=SearchLimits()).find()
    if wheel is not None:
        wheel.validate(graph)
    return wheel


# ----------------------------------------------------------------------
# Structural short-cuts
# ----------------------------------------------------------------------


def _all_shortest_path(policies: Mapping[int, RoutingPolicy]) -> bool:
    """True when every node runs the paper's default policy, *exactly*.

    Subclasses are deliberately excluded: an override of any hook voids
    the shortest-path safety argument, so only the pristine classes count.
    """
    return all(
        type(policy) in (RoutingPolicy, ShortestPathPolicy)
        for policy in policies.values()
    )


def _gao_rexford_issue(
    topology: Topology, policies: Mapping[int, RoutingPolicy]
) -> Optional[str]:
    """Why the Gao-Rexford structural safety argument does NOT apply.

    Returns ``None`` when it does: every node runs
    :class:`GaoRexfordPolicy`, every edge has a pairwise-consistent
    relationship (customer↔provider or peer↔peer), and the
    provider→customer digraph is acyclic.  Under those conditions Gao &
    Rexford's theorem guarantees convergence regardless of timing.
    """
    if not all(
        isinstance(policy, GaoRexfordPolicy) for policy in policies.values()
    ):
        return "not all policies are Gao-Rexford"
    customer_edges: Dict[int, List[int]] = {node: [] for node in topology.nodes}
    for u, v, _delay in topology.edges():
        try:
            seen_by_u = policies[u].relationship(v)  # type: ignore[union-attr]
            seen_by_v = policies[v].relationship(u)  # type: ignore[union-attr]
        except ProtocolError as exc:
            return f"relationship map incomplete: {exc}"
        consistent = (
            (seen_by_u is Relationship.CUSTOMER and seen_by_v is Relationship.PROVIDER)
            or (seen_by_u is Relationship.PROVIDER and seen_by_v is Relationship.CUSTOMER)
            or (seen_by_u is Relationship.PEER and seen_by_v is Relationship.PEER)
        )
        if not consistent:
            return (
                f"edge ({u}, {v}) relationships disagree: "
                f"{seen_by_u.value} vs {seen_by_v.value}"
            )
        if seen_by_u is Relationship.CUSTOMER:
            customer_edges[u].append(v)
        elif seen_by_v is Relationship.CUSTOMER:
            customer_edges[v].append(u)
    # Provider→customer digraph must be a DAG ("no AS is its own indirect
    # customer"); a cycle voids the Gao-Rexford convergence argument.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in topology.nodes}
    for root in topology.nodes:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, index = stack[-1]
            children = sorted(customer_edges[node])
            if index < len(children):
                stack[-1] = (node, index + 1)
                child = children[index]
                if color[child] == GRAY:
                    return (
                        f"provider→customer cycle through AS {child}: the "
                        f"hierarchy is not a DAG"
                    )
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


# ----------------------------------------------------------------------
# The certifier
# ----------------------------------------------------------------------


def certify(
    topology: Topology,
    destination: int,
    policy_factory: Optional[PolicyFactory] = None,
    prefix: str = "dest",
    name: str = "",
    limits: SearchLimits = SearchLimits(),
    structural: bool = True,
) -> StabilityReport:
    """Prove or refute convergence for one destination, statically.

    Tries the structural certificates first (``structural=False`` forces
    the exhaustive lattice route, mainly for tests), then falls back to
    policy-graph extraction plus dispute-wheel search.
    """
    policies: Dict[int, RoutingPolicy] = {}
    default = ShortestPathPolicy()
    for node in topology.nodes:
        policies[node] = policy_factory(node) if policy_factory else default
    label = name or f"dest-{destination}@{topology.name}"

    report: Optional[StabilityReport] = None
    if structural:
        if _all_shortest_path(policies):
            report = StabilityReport(
                name=label,
                destination=destination,
                prefix=prefix,
                verdict=Verdict.SAFE,
                method="shortest-path",
                detail=(
                    "every policy is pure shortest-path; rim edges of any "
                    "wheel would need non-positive total length"
                ),
                nodes=topology.num_nodes,
            )
        else:
            gao_issue = _gao_rexford_issue(topology, policies)
            if (
                all(isinstance(p, GaoRexfordPolicy) for p in policies.values())
                and gao_issue is None
            ):
                report = StabilityReport(
                    name=label,
                    destination=destination,
                    prefix=prefix,
                    verdict=Verdict.SAFE,
                    method="gao-rexford",
                    detail=(
                        "valley-free export, customer>peer>provider "
                        "preference, and an acyclic provider-customer "
                        "hierarchy (Gao-Rexford conditions)"
                    ),
                    nodes=topology.num_nodes,
                )

    if report is None:
        graph = extract_policy_graph(
            topology, destination, policies, prefix=prefix, limits=limits
        )
        search = _WheelSearch(graph=graph, limits=limits)
        wheel = search.find()
        if wheel is not None:
            wheel.validate(graph)
            report = StabilityReport(
                name=label,
                destination=destination,
                prefix=prefix,
                verdict=Verdict.UNSAFE,
                method="dispute-wheel",
                detail=(
                    f"dispute wheel with rim {list(wheel.rim)}: the cyclic "
                    f"preference conflict admits persistent oscillation"
                ),
                wheel=wheel,
                nodes=topology.num_nodes,
                paths=graph.total_paths,
                complete=graph.complete,
            )
        elif not graph.complete:
            report = StabilityReport(
                name=label,
                destination=destination,
                prefix=prefix,
                verdict=Verdict.UNKNOWN,
                method="truncated-lattice",
                detail=(
                    f"path enumeration truncated at nodes "
                    f"{list(graph.truncated_nodes)} "
                    f"(> {limits.max_paths_per_node}/node or "
                    f"> {MAX_PATHS_TOTAL} total); no wheel found in "
                    f"the enumerated fragment"
                ),
                nodes=topology.num_nodes,
                paths=graph.total_paths,
                complete=False,
            )
        elif search.exhausted:
            # A None with a blown step budget is "gave up", not "proved".
            report = StabilityReport(
                name=label,
                destination=destination,
                prefix=prefix,
                verdict=Verdict.UNKNOWN,
                method="search-budget",
                detail=(
                    f"wheel search exceeded {limits.max_search_steps} "
                    f"steps without completing"
                ),
                nodes=topology.num_nodes,
                paths=graph.total_paths,
            )
        else:
            report = StabilityReport(
                name=label,
                destination=destination,
                prefix=prefix,
                verdict=Verdict.SAFE,
                method="no-dispute-wheel",
                detail=(
                    f"exhaustive search over {graph.total_paths} "
                    f"permitted paths found no dispute wheel "
                    f"(Griffin-Shepherd-Wilfong sufficiency)"
                ),
                nodes=topology.num_nodes,
                paths=graph.total_paths,
            )
    return report


def certify_scenario(
    scenario: "Scenario",
    policy_factory: Optional[PolicyFactory] = None,
) -> StabilityReport:
    """:func:`certify` for an experiment scenario (pre-event topology).

    Certification looks at the scenario's *intended* topology: the verdict
    bounds behavior before, during, and after the event, because removing
    links only removes permitted paths and a sub-lattice of a wheel-free
    lattice is wheel-free.  (The converse is not true — a wheel may survive
    or vanish under failure — which is why UNSAFE verdicts are
    cross-checked dynamically by the oscillation runner.)

    This is the one way to ask for a verdict: no run certifies itself, so
    a caller that cross-checks a simulation against the static analysis
    (``repro stability --observe``) calls this beside it.
    """
    return certify(
        scenario.topology,
        scenario.destination,
        policy_factory,
        prefix=scenario.prefix,
        name=scenario.name,
    )

