"""The BGP decision process.

Given the local origination (if any) and the Adj-RIB-In candidates, pick the
best route under the active :class:`~repro.bgp.policy.RoutingPolicy`.  The
decision process is a pure function of RIB state, which makes the speaker's
invariant checkable: *Loc-RIB always equals the decision-process optimum.*
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .messages import Prefix
from .policy import RoutingPolicy
from .rib import AdjRibIn
from .route import Route, local_route

UsablePredicate = Callable[[Route], bool]
"""Extra eligibility filter (e.g. route-flap damping suppression)."""


class DecisionProcess:
    """Selects best routes under a policy."""

    def __init__(self, policy: RoutingPolicy) -> None:
        self._policy = policy

    @property
    def policy(self) -> RoutingPolicy:
        return self._policy

    def candidates(
        self,
        prefix: Prefix,
        adj_rib_in: AdjRibIn,
        originated: bool,
        usable: Optional[UsablePredicate] = None,
    ) -> List[Route]:
        """All selectable routes for ``prefix`` (deterministic order).

        ``usable`` excludes stored-but-ineligible routes — a damped
        (peer, prefix) stays in the Adj-RIB-In per RFC 2439 but must not be
        selected while suppressed.
        """
        routes: List[Route] = []
        if originated:
            routes.append(local_route(prefix))
        for route in adj_rib_in.candidates(prefix):
            if usable is None or usable(route):
                routes.append(route)
        return routes

    def select(
        self,
        prefix: Prefix,
        adj_rib_in: AdjRibIn,
        originated: bool,
        usable: Optional[UsablePredicate] = None,
    ) -> Optional[Route]:
        """The best route for ``prefix``, or ``None`` when unreachable.

        On a ranked Adj-RIB-In (one keeping the incremental per-prefix
        ranking, see :class:`~repro.bgp.rib.AdjRibIn`) the winner is read
        off the ranking instead of re-keying every candidate.  Both paths
        pick the same route: the ranking tie-breaks by neighbor id exactly
        like the first-encountered ``min`` over :meth:`candidates`, and the
        local route wins ties against peers just as it does when listed
        first in the naive scan.
        """
        if adj_rib_in.ranked:
            best_peer = adj_rib_in.best(prefix, usable)
            if not originated:
                return best_peer
            local = local_route(prefix)
            if best_peer is None:
                return local
            key = self._policy.preference_key
            return local if key(local) <= key(best_peer) else best_peer
        return self.select_naive(prefix, adj_rib_in, originated, usable)

    def select_naive(
        self,
        prefix: Prefix,
        adj_rib_in: AdjRibIn,
        originated: bool,
        usable: Optional[UsablePredicate] = None,
    ) -> Optional[Route]:
        """Reference selection: full scan over :meth:`candidates`.

        Kept as the ground truth the incremental ranking is checked against
        (``--sanitize`` runs and the decision-cache golden test).
        """
        routes = self.candidates(prefix, adj_rib_in, originated, usable)
        if not routes:
            return None
        return min(routes, key=self._policy.preference_key)
