"""Routes: a prefix bound to an AS path with bookkeeping attributes.

Interning
---------

At routing-table scale every speaker holds one candidate :class:`Route` per
(neighbor, prefix) pair, and most of those are *the same value*: a clique
node learns the same (path, next_hop, local_pref) triple for thousands of
prefixes that differ only in the prefix string.  This module therefore
keeps an **intern table** mirroring the :class:`~repro.bgp.path.AsPath`
one: one canonical :class:`Route` per distinct ``(prefix, path, next_hop,
local_pref)`` key.  Simulator code obtains routes through
:func:`intern_route` / :meth:`Route.of`; direct ``Route(...)``
construction stays valid (tests, ad-hoc analysis) and compares equal to
its canonical twin, it just does not share storage.

Both tables are scoped to one simulation by :func:`interning_scope`, which
``run_experiment`` and ``observe_oscillation`` run their whole bodies in:
a run's routes and paths outlive it only as long as its result refers to
them, so a process running trial after trial does not accumulate them.
Pickling is by value (:meth:`Route.__reduce__`), so a result received
from a sweep worker never grows the receiving process's tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from .messages import Prefix
from .path import _INTERN_TABLE as _PATH_TABLE
from .path import AsPath

LOCAL_NEXT_HOP: Optional[int] = None
"""``next_hop`` of a locally-originated route (traffic is delivered here)."""

DEFAULT_LOCAL_PREF = 100
"""BGP's customary default LOCAL_PREF."""


@dataclass(frozen=True, slots=True, eq=False)
class Route:
    """One candidate route to ``prefix``.

    Attributes
    ----------
    prefix:
        The destination.
    path:
        The AS path *as stored*: exactly what the neighbor advertised (its
        own AS is the head), or the empty path for a local origination.
    next_hop:
        The neighbor the route was learned from, or ``None`` for local.
    local_pref:
        Policy preference; higher wins (standard BGP semantics).  The
        paper's experiments leave every route at the default, making the
        decision purely shortest-path.
    """

    prefix: Prefix
    path: AsPath
    next_hop: Optional[int]
    local_pref: int = DEFAULT_LOCAL_PREF
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.next_hop is None and not self.path.is_empty:
            raise ValueError("a non-local route must name its next hop")
        if self.next_hop is not None and self.path.head != self.next_hop:
            raise ValueError(
                f"stored path {self.path!r} must start at next hop {self.next_hop}"
            )
        object.__setattr__(
            self,
            "_hash",
            hash((self.prefix, self.path, self.next_hop, self.local_pref)),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Route):
            return (
                self.prefix == other.prefix
                and self.local_pref == other.local_pref
                and self.next_hop == other.next_hop
                and self.path == other.path
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # By value, like AsPath: loading never touches the intern tables.
        return (Route, (self.prefix, self.path, self.next_hop, self.local_pref))

    @property
    def is_local(self) -> bool:
        """True for a locally-originated route."""
        return self.next_hop is None

    @property
    def hop_count(self) -> int:
        """AS hops to the destination (0 for a local route)."""
        return len(self.path)

    def advertised_by(self, asn: int) -> AsPath:
        """The path this route would carry when ``asn`` re-advertises it."""
        return self.path.prepend(asn)

    @classmethod
    def of(
        cls,
        prefix: Prefix,
        path: AsPath,
        next_hop: Optional[int],
        local_pref: int = DEFAULT_LOCAL_PREF,
    ) -> "Route":
        """The canonical (interned) instance; see :func:`intern_route`."""
        return intern_route(prefix, path, next_hop, local_pref)

    def __repr__(self) -> str:
        origin = "local" if self.is_local else f"via {self.next_hop}"
        return f"Route[{self.prefix} {self.path!r} {origin} lp={self.local_pref}]"


#: The intern table: (prefix, AS tuple, next_hop, local_pref) -> canonical
#: instance.  Strong references, like the AsPath table, bounded by the run
#: in progress: :func:`interning_scope` pops what a run added.
_INTERN_TABLE: Dict[Tuple[Prefix, Tuple[int, ...], Optional[int], int], Route] = {}


def intern_route(
    prefix: Prefix,
    path: AsPath,
    next_hop: Optional[int],
    local_pref: int = DEFAULT_LOCAL_PREF,
) -> Route:
    """The canonical :class:`Route` for the key, validating on first sight.

    Repeated requests return the *same* object, so route equality inside
    RIBs short-circuits on identity and per-prefix Adj-RIB state can be
    shared structurally across prefixes.  The stored path is canonicalized
    through :meth:`AsPath.of`, so an un-interned path argument still lands
    on the shared instance.
    """
    key = (prefix, path.ases, next_hop, local_pref)
    cached = _INTERN_TABLE.get(key)
    if cached is not None:
        return cached
    route = Route(
        prefix=prefix,
        path=AsPath.of(path.ases),
        next_hop=next_hop,
        local_pref=local_pref,
    )
    return _INTERN_TABLE.setdefault(key, route)


def route_intern_table_size() -> int:
    """Number of distinct routes currently interned (telemetry/tests)."""
    return len(_INTERN_TABLE)


@contextmanager
def interning_scope() -> Iterator[None]:
    """Scope the path and route intern tables to the enclosed simulation.

    On exit, by return or by exception, the entries added since entry are
    popped.  Both tables are insertion-ordered dicts, so those are the
    newest entries and ``popitem`` removes them LIFO: nested scopes unwind
    correctly, and a value interned before the scope keeps its canonical
    instance throughout.  Inside the scope nothing changes — the same
    canonical instances and the same identity fast path.

    The tables belong to the process, so the fast path is kept for one
    simulation at a time per thread: a network driven on after its scope
    ended, or a run whose entries another thread's scope popped, interns
    those values anew — equal by value, so results are unchanged, only
    slower.  Usable as a decorator: each call gets its own scope.
    """
    paths, routes = len(_PATH_TABLE), len(_INTERN_TABLE)
    try:
        yield
    finally:
        while len(_INTERN_TABLE) > routes:
            _INTERN_TABLE.popitem()
        while len(_PATH_TABLE) > paths:
            _PATH_TABLE.popitem()


def local_route(prefix: Prefix) -> Route:
    """The route a speaker installs when it originates ``prefix``.

    Interned — it is rebuilt on every decision-process pass for an
    originated prefix, so the dict hit matters.
    """
    return intern_route(prefix, AsPath.empty(), LOCAL_NEXT_HOP)
