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
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .messages import Prefix
from .path import AsPath
from .route import Route, intern_route

PreferenceKey = Callable[[Route], object]
"""A total-order key over routes; smaller wins (see
:meth:`repro.bgp.policy.RoutingPolicy.preference_key`)."""

#: Per-neighbor stored state: (path, next_hop, local_pref).  Everything a
#: candidate route carries except its prefix — materialized back into an
#: interned :class:`Route` on read.
_Stored = Tuple[AsPath, Optional[int], int]


class _Signature:
    """A candidate set as a sharing key: its sorted ``(neighbor, stored)``
    items, hashed once (hashing the items hashes every path in them)."""

    __slots__ = ("items", "_hash")

    def __init__(self, routes: Dict[int, _Stored]) -> None:
        self.items = tuple(sorted(routes.items()))
        self._hash = hash(self.items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Signature) and self.items == other.items


class _StateGroup:
    """One per-prefix candidate set, shared by every prefix whose state is
    identical (copy-on-write: a transition that moves only some of the
    members gives them a group of their own)."""

    __slots__ = ("routes", "ranked", "members", "sig")

    def __init__(
        self,
        routes: Dict[int, _Stored],
        ranked: List[Tuple[object, int]],
        sig: _Signature,
    ) -> None:
        self.routes = routes
        #: Sorted [(preference key, neighbor), ...].
        self.ranked = ranked
        #: How many prefixes point at this group.
        self.members = 0
        #: The signature it is registered under.
        self.sig = sig


class AdjRibIn:
    """Routes received from neighbors, keyed ``(neighbor, prefix)``.

    Alongside the routes the RIB keeps an **incremental ranking** per
    prefix under its ``preference_key``: ``(key, neighbor)`` entries held
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
    10k-prefix Adj-RIB-In collapses to a handful of live groups.  Every
    mutation is one :meth:`assign` — one neighbor's route for many
    prefixes — applied as one transition per distinct source group: the
    new candidate set, its ranking and its signature are computed once,
    the group is updated in place when all its members move, and otherwise
    the movers repoint to the group with that signature (a new one if none
    exists).  Stored routes are materialized on read through the
    :func:`~repro.bgp.route.intern_route` table, so reads hand back the
    canonical shared instances.  Because a group's members have identical
    candidates, a decision that reads only the group is theirs in common
    (:meth:`groups`).  Sharing is sound because ``preference_key`` is
    prefix-blind, as every policy hook is by contract
    (:class:`~repro.bgp.policy.RoutingPolicy`): a group's ranking is keyed
    from any one member's routes.
    """

    def __init__(self, preference_key: PreferenceKey) -> None:
        self._key = preference_key
        # prefix -> its (possibly shared) state group.
        self._groups: Dict[Prefix, _StateGroup] = {}
        # signature -> the group holding that exact candidate set.
        self._by_signature: Dict[_Signature, _StateGroup] = {}
        # neighbor -> prefixes it currently contributes a route for
        # (reverse index: drop_neighbor and deterministic iteration).
        self._neighbor_prefixes: Dict[int, Set[Prefix]] = {}

    # ------------------------------------------------------------------
    # Group plumbing
    # ------------------------------------------------------------------

    def _materialize(self, prefix: Prefix, neighbor: int, stored: _Stored) -> Route:
        del neighbor  # identity lives in stored[1] (the next hop)
        path, next_hop, local_pref = stored
        return intern_route(prefix, path, next_hop, local_pref)

    def _key_of(self, prefix: Prefix, neighbor: int, stored: _Stored) -> object:
        return self._key(self._materialize(prefix, neighbor, stored))

    def _transition(
        self,
        neighbor: int,
        group: Optional[_StateGroup],
        members: List[Prefix],
        stored: Optional[_Stored],
    ) -> None:
        """Set ``neighbor``'s entry to ``stored`` for ``members``, the
        prefixes of this call that point at ``group``."""
        old = group.routes.get(neighbor) if group is not None else None
        if old == stored:
            return  # value-identical: state unchanged
        index = self._neighbor_prefixes
        if old is None:
            contributed = index.get(neighbor)
            if contributed is None:
                index[neighbor] = set(members)
            else:
                contributed.update(members)
        elif stored is None:
            contributed = index[neighbor]
            contributed.difference_update(members)
            if not contributed:
                del index[neighbor]
        routes = dict(group.routes) if group is not None else {}
        if stored is None:
            del routes[neighbor]
        else:
            routes[neighbor] = stored
        target: Optional[_StateGroup] = None
        if routes:
            sig = _Signature(routes)
            target = self._by_signature.get(sig)
            if target is None:
                # No group holds the new set yet: this group becomes it when
                # every member moves, a fresh one otherwise.
                whole = group is not None and group.members == len(members)
                if whole:
                    assert group is not None
                    ranked = group.ranked
                    del self._by_signature[group.sig]
                else:
                    ranked = list(group.ranked) if group is not None else []
                prefix = members[0]  # the key is prefix-blind
                if old is not None:
                    ranked.remove((self._key_of(prefix, neighbor, old), neighbor))
                if stored is not None:
                    insort(ranked, (self._key_of(prefix, neighbor, stored), neighbor))
                if whole:
                    assert group is not None
                    group.routes, group.sig = routes, sig
                    self._by_signature[sig] = group
                    return
                target = self._by_signature[sig] = _StateGroup(routes, ranked, sig)
        if group is not None:
            group.members -= len(members)
            if group.members == 0:
                del self._by_signature[group.sig]
        groups = self._groups
        if target is None:
            for prefix in members:
                del groups[prefix]
            return
        target.members += len(members)
        for prefix in members:
            groups[prefix] = target

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def assign(
        self, neighbor: int, prefixes: Sequence[Prefix], stored: Optional[_Stored]
    ) -> None:
        """Set ``neighbor``'s route for every prefix in ``prefixes`` (distinct)
        to ``stored`` — ``(path, next_hop, local_pref)`` — or, with ``None``,
        remove it: one transition per distinct source group."""
        group_of = self._groups.get
        # source group -> its members among ``prefixes``
        moves: Dict[Optional[_StateGroup], List[Prefix]] = {}
        last: object = moves  # no group is the dict: the first prefix misses
        members: List[Prefix] = []
        for prefix in prefixes:
            group = group_of(prefix)
            if group is not last:
                # Neighboring prefixes mostly share a group: look up only
                # when it changes.
                last = group
                members = moves.setdefault(group, [])
            members.append(prefix)
        for group, members in moves.items():
            self._transition(neighbor, group, members, stored)

    def put(self, neighbor: int, route: Route) -> None:
        """Store/replace the route from ``neighbor`` for ``route.prefix``."""
        self.assign(
            neighbor, (route.prefix,), (route.path, route.next_hop, route.local_pref)
        )

    def remove(self, neighbor: int, prefix: Prefix) -> Optional[Route]:
        """Drop and return the stored route, or ``None`` if absent."""
        route = self.get(neighbor, prefix)
        if route is not None:
            self.assign(neighbor, (prefix,), None)
        return route

    def drop_neighbor(self, neighbor: int) -> List[Prefix]:
        """Forget everything from ``neighbor`` (session down).

        Returns the prefixes that lost a candidate, so the caller can re-run
        the decision process for exactly those.
        """
        affected = sorted(self._neighbor_prefixes.get(neighbor, ()))
        self.assign(neighbor, affected, None)
        return affected

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def groups(self, prefixes: Iterable[Prefix]) -> Iterator[Optional[object]]:
        """Each prefix's state group (``None``: no stored route), as an
        opaque token, read as the iterator advances: prefixes with the same
        token hold the same candidates in the same ranking until the next
        mutation."""
        return map(self._groups.get, prefixes)

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

        O(1) without a ``usable`` filter, O(suppressed prefix-candidates)
        with one.
        """
        group = self._groups.get(prefix)
        if group is None:
            return None
        if usable is None:
            path, next_hop, local_pref = group.routes[group.ranked[0][1]]
            return intern_route(prefix, path, next_hop, local_pref)
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


class LocRib(Dict[Prefix, Route]):
    """The best route per prefix, as selected by the decision process.

    A ``prefix -> Route`` dict, read with the dict's own methods (the
    speaker's per-prefix loops call ``get`` directly) and written through
    :meth:`set` and :meth:`remove`.
    """

    def set(self, route: Route) -> None:
        self[route.prefix] = route

    def remove(self, prefix: Prefix) -> Optional[Route]:
        return self.pop(prefix, None)

    def prefixes(self) -> List[Prefix]:
        return sorted(self)


EMPTY_VIEW: Mapping[Prefix, Optional[AsPath]] = MappingProxyType({})
"""The :class:`AdjRibOut` view of a neighbor sent nothing yet."""


class AdjRibOut(Dict[int, Dict[Prefix, Optional[AsPath]]]):
    """Last advertisement per ``(neighbor, prefix)``.

    A ``neighbor -> view`` dict, written only through :meth:`record`; a
    view maps each prefix to the path the neighbor currently believes we
    advertised (our AS at the head), or ``None`` when it holds nothing from
    us (read one with ``get(neighbor, EMPTY_VIEW)``).  A prefix never sent
    is absent from the view, which reads the same as ``None`` after an
    explicit withdrawal — correctly so, since in both cases the neighbor
    holds no route from us.
    """

    def record(self, neighbor: int, prefix: Prefix, path: Optional[AsPath]) -> None:
        """Note what was just sent: ``path``, or ``None`` for a withdrawal."""
        try:
            self[neighbor][prefix] = path
        except KeyError:
            self[neighbor] = {prefix: path}

    def drop_neighbor(self, neighbor: int) -> None:
        """Forget the neighbor entirely (session down)."""
        self.pop(neighbor, None)
