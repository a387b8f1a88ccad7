"""AS-path algebra.

The AS path is the defining attribute of a path-vector protocol: every
announcement carries the full sequence of ASes toward the destination, and
the paper's §3 reasons about paths with a concatenation operator "·" and a
containment test (the path-based poison reverse).  :class:`AsPath` implements
exactly that algebra as an immutable value type.

Conventions (matching the paper's notation):

* ``AsPath((5, 4, 0))`` is the path "5 4 0": the head (index 0) is the AS
  that most recently advertised the route, the tail is the origin AS.
* A node *stores* the path exactly as received and *prepends itself* when
  re-advertising, so a route's advertised form is ``path.prepend(self_id)``.
* The empty path is valid: it is the path of a locally-originated route.

Interning
---------

Paths are the hottest value type in the simulator: every announcement,
poison-reverse check, and Adj-RIB-Out duplicate test walks them.  This
module therefore keeps an **intern table**: one canonical :class:`AsPath`
instance per distinct AS sequence.  All simulator code must obtain paths
through the interning constructors —

* :func:`intern_path` / :meth:`AsPath.of` — the canonical factory,
* the algebra methods (:meth:`AsPath.prepend`, :meth:`AsPath.suffix_from`,
  :meth:`AsPath.empty`), which always return interned instances,

— never ``AsPath(...)`` directly (the determinism linter's REP106 rule
enforces this outside this module).  Interning buys three things on the
hot path: construction of a previously-seen path is a single dict hit,
equality between interned paths short-circuits on identity, and every
path carries a precomputed hash plus a frozenset shadow of its members
for O(1) containment (the loop-detection test).

The table is scoped to one simulation: each run executes inside
:func:`repro.bgp.route.interning_scope`, which pops the entries the run
added when it ends, so a process that runs trial after trial keeps in
its table only the paths of the run in progress.
Pickling is by value (:meth:`AsPath.__reduce__`): a loaded path is a
validated un-interned instance, equal and hash-equal to the canonical
one, and loading never grows the receiving process's table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..errors import ProtocolError


class AsPath:
    """An immutable sequence of AS numbers, most-recent-first.

    Supports the operations the protocol and the paper's analysis need:
    prepend (advertisement), containment (loop detection), concatenation
    (the "·" operator of §3.2), suffix extraction (the Assertion check),
    and value equality/hashing (RIB bookkeeping).

    Direct construction validates but does **not** intern; simulator code
    uses :func:`intern_path` / :meth:`AsPath.of` (see the module docstring).
    Equality and hashing are value-based either way, so an un-interned
    instance (tests, ad-hoc analysis) compares equal to its canonical twin.
    """

    __slots__ = ("_ases", "_members", "_hash")

    def __init__(self, ases: Iterable[int] = ()) -> None:
        path = tuple(int(a) for a in ases)
        if any(a < 0 for a in path):
            raise ProtocolError(f"AS numbers must be non-negative: {path}")
        members = frozenset(path)
        if len(members) != len(path):
            raise ProtocolError(f"AS path may not contain duplicates: {path}")
        self._ases = path
        self._members = members
        self._hash = hash(path)

    # ------------------------------------------------------------------
    # Basic sequence behavior
    # ------------------------------------------------------------------

    @property
    def ases(self) -> Tuple[int, ...]:
        """The AS numbers as a tuple, most-recent-first."""
        return self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ases)

    def __contains__(self, asn: int) -> bool:
        return asn in self._members

    def __getitem__(self, index):
        return self._ases[index]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, AsPath):
            return self._ases == other._ases
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = " ".join(str(a) for a in self._ases)
        return f"({body})"

    def __reduce__(self):
        # By value: a result shipped home from a sweep worker must not
        # grow the receiving process's intern table.
        return (AsPath, (self._ases,))

    # ------------------------------------------------------------------
    # Path-vector operations
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True for the path of a locally-originated route."""
        return not self._ases

    @property
    def head(self) -> Optional[int]:
        """The most recent AS (the advertising neighbor), or ``None``."""
        return self._ases[0] if self._ases else None

    @property
    def origin(self) -> Optional[int]:
        """The origin AS (last element), or ``None`` for the empty path."""
        return self._ases[-1] if self._ases else None

    def prepend(self, asn: int) -> "AsPath":
        """The path as advertised by ``asn``: ``asn`` prefixed to this path.

        Raises :class:`ProtocolError` if ``asn`` already appears — a speaker
        advertising a path through itself is a protocol bug.
        """
        if asn in self._members:
            raise ProtocolError(f"AS {asn} already in path {self!r}")
        return _intern_valid((asn,) + self._ases)

    def suffix_from(self, asn: int) -> Optional["AsPath"]:
        """The sub-path starting at ``asn`` (inclusive), or ``None``.

        This is the Assertion approach's consistency probe: node *v* checks
        whether a stored path's suffix from neighbor *u* matches *u*'s
        currently-announced path.
        """
        try:
            index = self._ases.index(asn)
        except ValueError:
            return None
        return _intern_valid(self._ases[index:])

    @classmethod
    def of(cls, ases: Iterable[int] = ()) -> "AsPath":
        """The canonical (interned) instance for ``ases``.

        This is the constructor simulator code should use; see
        :func:`intern_path`.
        """
        return intern_path(ases)

    @classmethod
    def empty(cls) -> "AsPath":
        """The path of a locally-originated route."""
        return _EMPTY


#: The intern table: AS tuple -> canonical instance.  Insertion-ordered,
#: so a run's :func:`~repro.bgp.route.interning_scope` trims exactly the
#: entries it added by popping the newest ones.
_INTERN_TABLE: Dict[Tuple[int, ...], AsPath] = {}


def intern_path(ases: Iterable[int] = ()) -> AsPath:
    """The canonical :class:`AsPath` for ``ases``, validating on first sight.

    Repeated requests for the same sequence return the *same* object, which
    is what makes path equality an identity check on the hot path.
    """
    key = ases if type(ases) is tuple else tuple(int(a) for a in ases)
    cached = _INTERN_TABLE.get(key)
    if cached is not None:
        return cached
    path = AsPath(key)  # validates; normalizes any non-int tuple entries
    return _INTERN_TABLE.setdefault(path._ases, path)


def _intern_valid(key: Tuple[int, ...]) -> AsPath:
    """Intern a tuple already known valid (built from an interned path)."""
    cached = _INTERN_TABLE.get(key)
    if cached is not None:
        return cached
    path = AsPath.__new__(AsPath)
    path._ases = key
    path._members = frozenset(key)
    path._hash = hash(key)
    return _INTERN_TABLE.setdefault(key, path)


def intern_table_size() -> int:
    """Number of distinct paths currently interned (telemetry/tests)."""
    return len(_INTERN_TABLE)


_EMPTY = intern_path(())
