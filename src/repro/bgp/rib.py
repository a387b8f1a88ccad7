"""The three BGP routing information bases.

* :class:`AdjRibIn` — per-neighbor copies of "the most recent paths received
  from each of its neighbors" (paper §3); this is what path exploration
  walks through after a failure.
* :class:`LocRib` — the selected best route per prefix.
* :class:`AdjRibOut` — what was last *sent* to each neighbor, used both to
  suppress duplicate advertisements ("the route to each destination is
  advertised only once; subsequent updates are sent only upon route
  changes") and as the reference point for Ghost Flushing's
  "changed to a longer path" test.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .messages import Prefix
from .path import AsPath
from .policy import RoutingPolicy
from .route import Route, intern_route

PreferenceKey = Callable[[Route], object]
"""A total-order key over routes; smaller wins (see
:meth:`repro.bgp.policy.RoutingPolicy.preference_key`)."""

#: Per-neighbor stored state: (path, next_hop, local_pref).  Everything a
#: candidate route carries except its prefix — materialized back into an
#: interned :class:`Route` on read.
_Stored = Tuple[AsPath, Optional[int], int]


class _StateGroup:
    """One per-prefix candidate set, shared by every prefix whose state is
    identical (copy-on-write: the first diverging mutation splits)."""

    __slots__ = ("routes", "ranked", "members", "sig")

    def __init__(
        self,
        routes: Dict[int, _Stored],
        ranked: Optional[List[Tuple[object, int]]],
        sig: Optional[Tuple],
    ) -> None:
        self.routes = routes
        #: Sorted [(preference key, neighbor), ...] — None when unranked.
        self.ranked = ranked
        self.members = 1
        #: Cached sharing signature; None when sharing is disabled.
        self.sig = sig


class AdjRibIn:
    """Routes received from neighbors, keyed ``(neighbor, prefix)``.

    When constructed with a ``preference_key`` the RIB additionally keeps an
    **incremental ranking** per prefix: ``(key, neighbor)`` entries held
    sorted across mutations, so the decision process reads its winner off
    the front instead of re-scanning and re-keying every candidate on every
    UPDATE.  Only the changed peer's entry is re-ranked (one removal plus
    one bisect insertion).  The ranking's tie-break is the neighbor id,
    ascending — exactly the order :meth:`candidates` yields — so the cached
    winner is always the route the naive full scan would pick
    (:meth:`repro.bgp.decision.DecisionProcess.select_naive` cross-checks
    this under ``--sanitize``).

    Storage is **structurally shared across prefixes**: each prefix points
    at a :class:`_StateGroup` holding its candidate set (per-neighbor
    ``(path, next_hop, local_pref)`` plus the ranking), and prefixes whose
    candidate sets are identical share one group.  At routing-table scale
    most prefixes march through the same announcement sequence, so a
    10k-prefix Adj-RIB-In collapses to a handful of live groups.  A
    mutation on a shared group copies it first (copy-on-write) and then
    re-merges with any existing group its new signature matches.  Stored
    routes are materialized on read through the :func:`~repro.bgp.route.
    intern_route` table, so reads hand back the canonical shared instances
    (``learned_at`` is normalized to ``0.0`` — it is diagnostics-only).

    Sharing is enabled only when the preference key is known to be
    **prefix-independent** — the base
    :meth:`~repro.bgp.policy.RoutingPolicy.preference_key` (which every
    shipped policy inherits) or no key at all.  A custom override might
    rank by prefix, so it degrades to one group per prefix, same public
    behavior.
    """

    def __init__(self, preference_key: Optional[PreferenceKey] = None) -> None:
        self._key = preference_key
        self._share = (
            preference_key is None
            or getattr(preference_key, "__func__", None)
            is RoutingPolicy.preference_key
        )
        # prefix -> its (possibly shared) state group.
        self._groups: Dict[Prefix, _StateGroup] = {}
        # signature -> the group holding that exact candidate set.
        self._shared: Dict[Tuple, _StateGroup] = {}
        # neighbor -> prefixes it currently contributes a route for
        # (reverse index: drop_neighbor and deterministic iteration).
        self._neighbor_prefixes: Dict[int, Set[Prefix]] = {}

    @property
    def ranked(self) -> bool:
        """True when the incremental per-prefix ranking is maintained."""
        return self._key is not None

    # ------------------------------------------------------------------
    # Group plumbing
    # ------------------------------------------------------------------

    def _materialize(self, prefix: Prefix, neighbor: int, stored: _Stored) -> Route:
        del neighbor  # identity lives in stored[1] (the next hop)
        path, next_hop, local_pref = stored
        return intern_route(prefix, path, next_hop, local_pref)

    def _key_of(self, prefix: Prefix, neighbor: int, stored: _Stored) -> object:
        return self._key(self._materialize(prefix, neighbor, stored))

    @staticmethod
    def _signature(routes: Dict[int, _Stored]) -> Tuple:
        return tuple(sorted(routes.items()))

    def _detach(self, group: Optional[_StateGroup]) -> None:
        """Drop one membership; unregister the group when it empties."""
        if group is None:
            return
        group.members -= 1
        if group.members == 0 and group.sig is not None:
            del self._shared[group.sig]

    def _writable(
        self, prefix: Prefix, group: Optional[_StateGroup]
    ) -> _StateGroup:
        """A group for ``prefix`` that is safe to mutate in place.

        Sole-member groups are unregistered from the sharing table (the
        caller re-registers under the post-mutation signature); shared
        groups are split copy-on-write.
        """
        if group is None:
            fresh = _StateGroup({}, [] if self._key is not None else None, None)
            self._groups[prefix] = fresh
            return fresh
        if group.members == 1:
            if group.sig is not None:
                del self._shared[group.sig]
                group.sig = None
            return group
        group.members -= 1
        split = _StateGroup(
            dict(group.routes),
            list(group.ranked) if group.ranked is not None else None,
            None,
        )
        self._groups[prefix] = split
        return split

    def _register(self, group: _StateGroup) -> None:
        """Cache the (sole-member) group's signature for future sharing."""
        if self._share:
            sig = self._signature(group.routes)
            group.sig = sig
            self._shared[sig] = group

    def _adopt(
        self, prefix: Prefix, group: Optional[_StateGroup], target: _StateGroup
    ) -> None:
        """Repoint ``prefix`` at an existing identical group."""
        self._detach(group)
        target.members += 1
        self._groups[prefix] = target

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def put(self, neighbor: int, route: Route) -> None:
        """Store/replace the route from ``neighbor`` for ``route.prefix``."""
        prefix = route.prefix
        stored: _Stored = (route.path, route.next_hop, route.local_pref)
        group = self._groups.get(prefix)
        old = group.routes.get(neighbor) if group is not None else None
        if old == stored:
            return  # value-identical replacement: state unchanged
        self._neighbor_prefixes.setdefault(neighbor, set()).add(prefix)
        if self._share:
            routes = dict(group.routes) if group is not None else {}
            routes[neighbor] = stored
            target = self._shared.get(self._signature(routes))
            if target is not None:
                self._adopt(prefix, group, target)
                return
        group = self._writable(prefix, group)
        group.routes[neighbor] = stored
        if group.ranked is not None:
            if old is not None:
                group.ranked.remove(
                    (self._key_of(prefix, neighbor, old), neighbor)
                )
            insort(group.ranked, (self._key(route), neighbor))
        self._register(group)

    def remove(self, neighbor: int, prefix: Prefix) -> Optional[Route]:
        """Drop and return the stored route, or ``None`` if absent."""
        group = self._groups.get(prefix)
        stored = group.routes.get(neighbor) if group is not None else None
        if stored is None:
            return None
        result = self._materialize(prefix, neighbor, stored)
        self._discard(neighbor, prefix, group, stored)
        prefixes = self._neighbor_prefixes.get(neighbor)
        if prefixes is not None:
            prefixes.discard(prefix)
            if not prefixes:
                del self._neighbor_prefixes[neighbor]
        return result

    def _discard(
        self, neighbor: int, prefix: Prefix, group: _StateGroup, stored: _Stored
    ) -> None:
        """Remove ``neighbor``'s contribution (reverse index untouched)."""
        if len(group.routes) == 1:
            self._detach(group)
            del self._groups[prefix]
            return
        if self._share:
            routes = dict(group.routes)
            del routes[neighbor]
            target = self._shared.get(self._signature(routes))
            if target is not None:
                self._adopt(prefix, group, target)
                return
        group = self._writable(prefix, group)
        del group.routes[neighbor]
        if group.ranked is not None:
            group.ranked.remove((self._key_of(prefix, neighbor, stored), neighbor))
        self._register(group)

    def drop_neighbor(self, neighbor: int) -> List[Prefix]:
        """Forget everything from ``neighbor`` (session down).

        Returns the prefixes that lost a candidate, so the caller can re-run
        the decision process for exactly those.
        """
        affected = sorted(self._neighbor_prefixes.pop(neighbor, ()))
        for prefix in affected:
            group = self._groups[prefix]
            self._discard(neighbor, prefix, group, group.routes[neighbor])
        return affected

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, neighbor: int, prefix: Prefix) -> Optional[Route]:
        group = self._groups.get(prefix)
        if group is None:
            return None
        stored = group.routes.get(neighbor)
        if stored is None:
            return None
        return self._materialize(prefix, neighbor, stored)

    def best(
        self,
        prefix: Prefix,
        usable: Optional[Callable[[Route], bool]] = None,
    ) -> Optional[Route]:
        """The highest-ranked (usable) route for ``prefix``, or ``None``.

        Only available on a ranked RIB; O(1) without a ``usable`` filter,
        O(suppressed prefix-candidates) with one.
        """
        group = self._groups.get(prefix)
        if group is None or not group.ranked:
            return None
        if usable is None:
            neighbor = group.ranked[0][1]
            return self._materialize(prefix, neighbor, group.routes[neighbor])
        for _key, neighbor in group.ranked:
            route = self._materialize(prefix, neighbor, group.routes[neighbor])
            if usable(route):
                return route
        return None

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All stored routes for ``prefix``, neighbor-id order (deterministic)."""
        group = self._groups.get(prefix)
        if group is None:
            return []
        return [
            self._materialize(prefix, neighbor, group.routes[neighbor])
            for neighbor in sorted(group.routes)
        ]

    def neighbors_with(self, prefix: Prefix) -> List[int]:
        """Neighbors currently contributing a route for ``prefix``."""
        group = self._groups.get(prefix)
        return sorted(group.routes) if group is not None else []

    def entries(self) -> Iterator[Tuple[int, Route]]:
        """All ``(neighbor, route)`` pairs, deterministic order."""
        for neighbor in sorted(self._neighbor_prefixes):
            for prefix in sorted(self._neighbor_prefixes[neighbor]):
                group = self._groups[prefix]
                yield neighbor, self._materialize(
                    prefix, neighbor, group.routes[neighbor]
                )

    def __len__(self) -> int:
        return sum(len(v) for v in self._neighbor_prefixes.values())

    def group_count(self) -> int:
        """Distinct live state groups (diagnostics: sharing effectiveness)."""
        return len({id(g) for g in self._groups.values()})


class LocRib:
    """The best route per prefix, as selected by the decision process."""

    def __init__(self) -> None:
        self._best: Dict[Prefix, Route] = {}

    def get(self, prefix: Prefix) -> Optional[Route]:
        return self._best.get(prefix)

    def set(self, route: Route) -> None:
        self._best[route.prefix] = route

    def remove(self, prefix: Prefix) -> Optional[Route]:
        return self._best.pop(prefix, None)

    def prefixes(self) -> List[Prefix]:
        return sorted(self._best)

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best


class AdjRibOut:
    """Last advertisement per ``(neighbor, prefix)``."""

    def __init__(self) -> None:
        self._sent: Dict[int, Dict[Prefix, Optional[AsPath]]] = {}

    def last_sent(self, neighbor: int, prefix: Prefix) -> Optional[AsPath]:
        """The path the neighbor currently believes we advertised (our AS
        at the head), or ``None`` when it holds nothing from us.

        Before any message this is ``None``, the same as after an explicit
        withdrawal — correctly so, since in both cases the neighbor holds
        no route from us.
        """
        return self._sent.get(neighbor, {}).get(prefix)

    def record(self, neighbor: int, prefix: Prefix, path: Optional[AsPath]) -> None:
        """Note what was just sent: ``path``, or ``None`` for a withdrawal."""
        self._sent.setdefault(neighbor, {})[prefix] = path

    def drop_neighbor(self, neighbor: int) -> None:
        """Forget the neighbor entirely (session down)."""
        self._sent.pop(neighbor, None)
