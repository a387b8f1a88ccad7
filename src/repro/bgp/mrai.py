"""The Minimum Route Advertisement Interval (MRAI) machinery.

"BGP also uses a Minimum Route Advertisement Interval (MRAI) timer to space
out consecutive updates for the same destination by M seconds (default value
30) with a small jitter interval" (§3).  The study implements the timer "on a
per (destination, neighbor) pair base", and so does this module by default
(:data:`MRAI_PER_PREFIX`).  Deployed routers commonly run one timer per
*neighbor*, shared by every destination (:data:`MRAI_PER_PEER`; the dragon
simulator's ``MRAI_PEER_BASED``), which synchronizes the release of held
updates across the table — what makes batched UPDATEs
(``BgpConfig.batch_updates``) carry many prefixes per message.

Both modes run one rule; they differ only in the key a timer is filed
under, ``(peer, prefix)`` or ``(peer, None)``:

* Sending a rate-limited update arms its timer with a jittered interval.
* An update suppressed while the timer runs (an MRAI-held announcement, a
  WRATE-held withdrawal) is recorded with :meth:`MraiManager.hold` in that
  timer's *held set*.
* Expiry hands the speaker ``on_expiry(peer, sorted(held))``; the speaker
  re-derives exactly those prefixes from *current* state (intermediate
  flaps collapse into one update) inside one :meth:`MraiManager.
  flush_window`, which re-arms the shared timer once if anything went out.
  A per-prefix timer's held set is its one prefix (or empty).
* Withdrawals bypass the timer unless WRATE is enabled.
"""

from __future__ import annotations

import random
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Scheduler, Timer
from .messages import Prefix

DEFAULT_MRAI = 30.0
"""The protocol default of M = 30 seconds."""

DEFAULT_JITTER = (0.75, 1.0)
"""RFC 1771's suggested jitter: the configured value scaled by U[0.75, 1]."""

MRAI_PER_PREFIX = "per-prefix"
"""One timer per (peer, prefix) pair — the paper's model and the default."""

MRAI_PER_PEER = "per-peer"
"""One timer per peer, shared by every prefix."""

MRAI_MODES = frozenset({MRAI_PER_PREFIX, MRAI_PER_PEER})

TimerKey = Tuple[int, Optional[Prefix]]
"""``(peer, prefix)`` for a per-prefix timer, ``(peer, None)`` for a per-peer one."""

ExpiryCallback = Callable[[int, List[Prefix]], None]
"""``callback(peer, held)``: the expired timer's held prefixes, sorted."""


class MraiManager:
    """MRAI timers for one speaker, per-(peer, prefix) or per-peer.

    Parameters
    ----------
    scheduler:
        Simulation scheduler the timers run on.
    interval:
        The configured M in seconds.  ``0`` disables rate limiting entirely
        (every ``can_send_now`` is True) — used by ablation experiments.
    jitter:
        ``(low, high)`` multiplicative jitter range applied per arming.
    rng:
        Source for jitter draws (a named stream from the run's
        :class:`~repro.engine.rng.RandomStreams`).
    on_expiry:
        ``callback(peer, held)`` invoked when a timer fires, with the sorted
        prefixes :meth:`hold` recorded under it; the speaker re-derives what
        (if anything) to send to that peer for each.
    mode:
        :data:`MRAI_PER_PREFIX` (default) or :data:`MRAI_PER_PEER`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        jitter: Tuple[float, float],
        rng: random.Random,
        on_expiry: ExpiryCallback,
        mode: str = MRAI_PER_PREFIX,
    ) -> None:
        if interval < 0:
            raise ValueError(f"MRAI interval must be >= 0, got {interval}")
        low, high = jitter
        if not (0 < low <= high):
            raise ValueError(f"jitter range must satisfy 0 < low <= high, got {jitter}")
        if mode not in MRAI_MODES:
            raise ValueError(f"MRAI mode must be one of {sorted(MRAI_MODES)}, got {mode!r}")
        self._scheduler = scheduler
        self._interval = interval
        self._jitter = jitter
        self._rng = rng
        self._on_expiry = on_expiry
        self._mode = mode
        #: One timer per peer (rather than per (peer, prefix)).
        self.per_peer = mode == MRAI_PER_PEER
        self._timers: Dict[TimerKey, Timer] = {}
        # Per timer: the prefixes whose updates it suppressed (hold()).
        self._held: Dict[TimerKey, Set[Prefix]] = defaultdict(set)
        # Per-peer flush state: while a peer is in a flush window, sends go
        # through without restarting the shared timer; it is re-armed once
        # at window exit if anything was sent.
        self._flushing: Set[int] = set()
        self._flush_sent: Set[int] = set()

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._interval > 0

    @property
    def mode(self) -> str:
        return self._mode

    def _key(self, peer: int, prefix: Prefix) -> TimerKey:
        return (peer, None) if self.per_peer else (peer, prefix)

    def can_send_now(self, peer: int, prefix: Prefix) -> bool:
        """True when no MRAI hold is in effect for ``(peer, prefix)``."""
        if not self.enabled:
            return True
        if peer in self._flushing:
            return True
        timer = self._timers.get(self._key(peer, prefix))
        return timer is None or not timer.running

    def mark_sent(self, peer: int, prefix: Prefix) -> None:
        """Record that a rate-limited update was just sent; arm the timer."""
        if not self.enabled:
            return
        if peer in self._flushing:
            self._flush_sent.add(peer)
            return
        self._arm(self._key(peer, prefix))

    def hold(self, peer: int, prefix: Prefix) -> None:
        """Record an update for ``(peer, prefix)`` suppressed while its timer
        runs: the timer's expiry hands ``prefix`` back to the speaker."""
        self._held[self._key(peer, prefix)].add(prefix)

    def _arm(self, key: TimerKey) -> None:
        timer = self._timers.get(key)
        if timer is None:
            peer, prefix = key
            timer = Timer(
                self._scheduler,
                callback=lambda: self._expire(key),
                name=f"mrai:{peer}" if prefix is None else f"mrai:{peer}:{prefix}",
            )
            self._timers[key] = timer
        timer.restart(self._draw_interval())

    def _expire(self, key: TimerKey) -> None:
        self._on_expiry(key[0], sorted(self._held.pop(key, ())))

    def flush_window(self, peer: int) -> ContextManager[None]:
        """Many sends toward ``peer``, one re-arming of its shared timer.

        Inside the window every prefix toward ``peer`` may send
        (``can_send_now`` is True); the shared timer is re-armed exactly
        once at exit — and only if something was actually sent, so an empty
        round leaves the peer unthrottled.  A no-op in per-prefix mode.
        """
        if not self.per_peer or not self.enabled:
            return nullcontext()
        return self._flush_round(peer)

    @contextmanager
    def _flush_round(self, peer: int) -> Iterator[None]:
        self._flushing.add(peer)
        self._flush_sent.discard(peer)
        try:
            yield
        finally:
            self._flushing.discard(peer)
            if peer in self._flush_sent:
                self._flush_sent.discard(peer)
                self._arm((peer, None))

    def holding(self, peer: int, prefix: Prefix) -> bool:
        """True while updates for the pair are being held by the timer."""
        return not self.can_send_now(peer, prefix)

    def cancel_peer(self, peer: int) -> None:
        """Drop all timers and held sets toward ``peer`` (session went down)."""
        self._flushing.discard(peer)
        self._flush_sent.discard(peer)
        for key, timer in self._timers.items():
            if key[0] == peer:
                timer.cancel()
                self._held.pop(key, None)

    def cancel_all(self) -> None:
        """Drop every timer and held set (the router crashed)."""
        self._flushing.clear()
        self._flush_sent.clear()
        self._held.clear()
        for timer in self._timers.values():
            timer.cancel()

    def active_timers(self) -> int:
        """Number of currently-running timers (diagnostics)."""
        return sum(1 for t in self._timers.values() if t.running)

    # ------------------------------------------------------------------

    def _draw_interval(self) -> float:
        low, high = self._jitter
        return self._interval * self._rng.uniform(low, high)
