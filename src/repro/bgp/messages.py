"""BGP control-plane messages.

The two message kinds that drive convergence dynamics — announcements
(UPDATE with NLRI) and withdrawals (UPDATE with withdrawn routes) — plus the
two session-management messages the churn experiments need: KEEPALIVE
(liveness when the session layer is enabled) and OPEN (the handshake that
re-establishes a session after a reset, triggering the RFC 1771 initial
full-table exchange).  NOTIFICATION is still abstracted away.

Prefixes are opaque strings (``"dest"``, or structured ones such as
``"00000100/24"`` in the prefix-population workloads).  The speaker handles
all three UPDATE forms through one ``(withdrawn, nlri)`` handler: an
``Announcement`` or a ``Withdrawal`` is an ``UpdateBatch`` of one route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt
from typing import Tuple

from .path import AsPath

Prefix = str
"""Type alias for destination identifiers."""


@dataclass(frozen=True, slots=True)
class Announcement:
    """An UPDATE advertising ``path`` as the sender's route to ``prefix``.

    ``path`` is the path *as sent*: the sender's own AS number is the head.
    """

    prefix: Prefix
    path: AsPath

    def __post_init__(self) -> None:
        if self.path.is_empty:
            raise ValueError("an announcement must carry a non-empty AS path")

    def __repr__(self) -> str:
        return f"Announce[{self.prefix} via {self.path!r}]"


@dataclass(frozen=True, slots=True)
class Withdrawal:
    """An UPDATE withdrawing the sender's previously-announced route."""

    prefix: Prefix

    def __repr__(self) -> str:
        return f"Withdraw[{self.prefix}]"


@dataclass(frozen=True, slots=True)
class Keepalive:
    """A KEEPALIVE: refreshes the receiver's hold timer, carries no routes.

    Only exchanged when the speaker's session layer is enabled
    (``BgpConfig.hold_time > 0``); the paper's experiments model instant
    interface-level failure detection and never need them.
    """

    #: Keepalives are pure background heartbeat: their delivery and
    #: processing events are scheduled as housekeeping, so an armed
    #: keepalive schedule never blocks run-to-quiescence.
    HOUSEKEEPING = True

    def __repr__(self) -> str:
        return "Keepalive"


@dataclass(frozen=True, slots=True)
class Open:
    """An OPEN: (re-)establishes the session with the receiving peer.

    Exchanged only by the ConnectRetry machinery after a session loss (the
    boot-time peering is implicit, as in the paper).  ``echo=True`` marks
    the passive reply to a received OPEN, so crossing handshakes terminate
    instead of echoing forever.
    """

    echo: bool = False

    def __repr__(self) -> str:
        return f"Open[{'echo' if self.echo else 'syn'}]"


@dataclass(frozen=True, slots=True)
class UpdateBatch:
    """One UPDATE carrying many prefixes (RFC 4271 packing).

    Real UPDATEs carry a withdrawn-routes list plus one set of path
    attributes shared by an NLRI list; this simulator variant generalizes
    the NLRI side to per-prefix paths so one message can flush a whole
    MRAI round.  Produced only when ``BgpConfig.batch_updates`` is on;
    receivers process it exactly as they do a one-route UPDATE (withdrawn
    first, then NLRI, then one decision pass), so batching changes message
    count and timing, not how any one route is handled.

    Both tuples are sorted by prefix and duplicate-free, and a prefix never
    appears on both sides — the sender's last-wins queue guarantees it and
    ``__post_init__`` enforces it, which keeps the wire form canonical (and
    digest-stable) no matter what order updates were queued in.
    """

    withdrawn: Tuple[Prefix, ...] = field(default=())
    nlri: Tuple[Tuple[Prefix, AsPath], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.withdrawn and not self.nlri:
            raise ValueError("an update batch must carry at least one route")
        nlri_prefixes = [prefix for prefix, _path in self.nlri]
        # Strictly ascending: sorted and duplicate-free in one pass.
        withdrawn = self.withdrawn
        if not all(map(lt, withdrawn, withdrawn[1:])):
            raise ValueError(f"withdrawn list not canonical: {withdrawn!r}")
        if not all(map(lt, nlri_prefixes, nlri_prefixes[1:])):
            raise ValueError(f"nlri list not canonical: {tuple(nlri_prefixes)!r}")
        overlap = set(withdrawn).intersection(nlri_prefixes)
        if overlap:
            raise ValueError(f"prefixes both withdrawn and announced: {sorted(overlap)}")
        # Routes share few paths: check each distinct path object once.
        paths = [path for _prefix, path in self.nlri]
        distinct = dict(zip(map(id, paths), paths)).values()
        heads = {path.head for path in distinct}
        if len(heads) > 1:
            raise ValueError(f"nlri paths name different senders: {sorted(heads)}")
        if any(path.is_empty for path in distinct):
            raise ValueError("an update batch NLRI path must be non-empty")

    @property
    def size(self) -> int:
        """Total routes carried (withdrawn + announced)."""
        return len(self.withdrawn) + len(self.nlri)

    def __repr__(self) -> str:
        parts = []
        if self.withdrawn:
            parts.append(f"withdraw {list(self.withdrawn)}")
        if self.nlri:
            parts.append(
                "announce " + ", ".join(f"{p} via {path!r}" for p, path in self.nlri)
            )
        return f"Batch[{'; '.join(parts)}]"


def is_update(message: object) -> bool:
    """True for the messages that count toward convergence time.

    The paper measures convergence as "the time the last BGP update message
    is sent"; announcements, withdrawals, and batched UPDATEs all count
    (OPENs and KEEPALIVEs do not).
    """
    return isinstance(message, (Announcement, Withdrawal, UpdateBatch))
