"""Routing policy hooks.

The paper assumes "a shortest-path routing policy, and the smaller node ID is
used for tie-breaking between equal length paths".  That is the default
policy here; the :class:`RoutingPolicy` interface additionally exposes the
standard BGP policy knobs (import/export filtering, LOCAL_PREF assignment) so
the library is usable beyond the paper's scenarios.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, TypeVar

from ..errors import ConfigError
from .messages import Prefix
from .route import DEFAULT_LOCAL_PREF, Route

Hook = TypeVar("Hook", bound=Callable)

_HOOKS = ("accept_import", "local_pref", "preference_key", "accept_export")


def prefix_blind(hook: Hook) -> Hook:
    """Mark a policy hook that never reads ``route.prefix``.

    Prefixes that share a state group (:class:`~repro.bgp.rib.AdjRibIn`)
    share their decision inputs only if the policy cannot tell them apart,
    so the speaker evaluates a hook once for many prefixes only when every
    hook carries this mark (:func:`reads_prefix`).  An override without it
    is assumed to read the prefix, and the speaker then evaluates the
    policy per prefix: same results, less sharing.
    """
    hook.prefix_blind = True  # type: ignore[attr-defined]
    return hook


def reads_prefix(policy: "RoutingPolicy") -> bool:
    """True unless every hook of ``policy`` is marked :func:`prefix_blind`."""
    return not all(
        getattr(getattr(policy, name), "prefix_blind", False) for name in _HOOKS
    )


class RoutingPolicy:
    """Base policy: accept everything, shortest path, low-id tie-break.

    Subclass and override any hook.  All hooks are pure functions of their
    arguments; policies must not keep per-call mutable state, because the
    speaker may re-evaluate routes at any time.  Mark an override that
    ignores ``route.prefix`` with :func:`prefix_blind` to keep the
    speaker's per-group evaluation (see there).
    """

    # ------------------------------------------------------------------
    # Import side
    # ------------------------------------------------------------------

    @prefix_blind
    def accept_import(self, neighbor: int, route: Route) -> bool:
        """Whether to store ``route`` learned from ``neighbor``.

        Loop detection (path-based poison reverse) happens *before* this
        hook and cannot be disabled by policy.
        """
        del neighbor, route
        return True

    @prefix_blind
    def local_pref(self, neighbor: int, route: Route) -> int:
        """LOCAL_PREF to assign to a route learned from ``neighbor``."""
        del neighbor, route
        return DEFAULT_LOCAL_PREF

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    @prefix_blind
    def preference_key(self, route: Route) -> Tuple:
        """Total-order key; the *smallest* key wins.

        Default: higher LOCAL_PREF, then shorter AS path, then smaller
        next-hop node id (local origination, next_hop ``None``, sorts before
        every neighbor — a node always prefers its own origination).
        """
        next_hop_rank = -1 if route.next_hop is None else route.next_hop
        return (-route.local_pref, route.hop_count, next_hop_rank)

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------

    @prefix_blind
    def accept_export(self, neighbor: int, route: Route) -> bool:
        """Whether to advertise ``route`` to ``neighbor``.

        Default full-mesh transit: advertise the best route to every peer
        (the receiver's poison reverse handles paths containing itself).
        """
        del neighbor, route
        return True


class ShortestPathPolicy(RoutingPolicy):
    """The paper's policy, by its own name — identical to the base class."""


class PathRankPolicy(RoutingPolicy):
    """An explicit ranked-path-list policy — the Stable Paths Problem form.

    The stability literature (Griffin–Shepherd–Wilfong's SPP, and the
    DISAGREE / BAD-GADGET / wedgie gadgets built on it) specifies each
    node's policy as an ordered list of *permitted* paths to the
    destination: anything off the list is filtered, and among permitted
    paths the earlier one always wins regardless of length.  This class
    realizes that spec over the standard policy hooks, so the deliberately
    unsafe gadget scenarios run on the unmodified speaker.

    ``ranked`` is the permitted list in *node-path* notation, best first:
    each entry starts at ``node`` itself and ends at the destination, e.g.
    ``PathRankPolicy(1, [(1, 2, 0), (1, 0)])`` — node 1 prefers the route
    through 2 over its direct route to 0.  Routes for other prefixes are
    untouched (accepted, default preference).

    All hooks are pure lookups into state fixed at construction (REP107).
    """

    _RANK_STRIDE = 10_000

    def __init__(
        self,
        node: int,
        ranked: Sequence[Sequence[int]],
        prefix: Prefix = "dest",
    ) -> None:
        self._node = node
        self._prefix = prefix
        rank_of = {}
        for rank, node_path in enumerate(ranked):
            steps = tuple(int(n) for n in node_path)
            if not steps or steps[0] != node:
                raise ConfigError(
                    f"ranked path {steps} must start at node {node}"
                )
            if len(set(steps)) != len(steps):
                raise ConfigError(f"ranked path {steps} repeats a node")
            stored = steps[1:]  # as held in the RIB: own head stripped
            if not stored:
                raise ConfigError(
                    f"ranked path {steps} has no next hop; local origination "
                    f"is implicit and never ranked"
                )
            if stored in rank_of:
                raise ConfigError(f"ranked path {steps} listed twice")
            rank_of[stored] = rank
        self._rank_of = rank_of

    def accept_import(self, neighbor: int, route: Route) -> bool:
        del neighbor
        if route.prefix != self._prefix:
            return True
        return route.path.ases in self._rank_of

    def local_pref(self, neighbor: int, route: Route) -> int:
        del neighbor
        if route.prefix != self._prefix:
            return DEFAULT_LOCAL_PREF
        rank = self._rank_of.get(route.path.ases)
        if rank is None:
            return DEFAULT_LOCAL_PREF
        # Strictly decreasing in rank, so the default preference key
        # (-local_pref first) reproduces the list order exactly; the
        # stride keeps every ranked path above any unranked default.
        return self._RANK_STRIDE - rank
