"""The BGP session layer: keepalives, hold timers, and re-establishment.

The paper's failure model is interface-level: the nodes adjacent to a
failed link react instantly.  Real BGP also has a slower detection path —
a *silent* failure (one that the interface does not report) is noticed only
when no message arrives from the peer for a full hold time (keepalives are
sent at a third of it, per RFC 1771's recommended ratio).

:class:`SessionManager` implements that per-neighbor machinery for a
speaker — an inbound hold timer reset by every received message, and an
outbound keepalive schedule — plus the *re-establishment* half of the
lifecycle: after a session loss with the link still up, a ConnectRetry
timer with exponential backoff and jitter drives OPEN handshake attempts
until the session comes back, at which point the speaker re-runs the
RFC 1771 initial table exchange (see ``BgpSpeaker._session_established``).

Detection latency and session churn are thereby first-class experimental
variables — the ``repro figure detection_latency`` claims row sweeps the
hold time, ``repro figure churn_flap_period`` the flap period, and the
Treset scenario family measures reset storms.

Scope notes:

* *Boot-time* establishment is implicit (adjacent speakers are configured
  peers, as in the paper); the OPEN handshake is only used to *re*-build a
  session that was lost while the link stayed up.  After a loss the
  ConnectRetry machinery goes dormant whenever the physical link is down —
  the interface-up notification restarts it.
* Keepalive and hold timers are scheduled as **housekeeping** events, so a
  session-mode simulation quiesces normally (give
  ``Scheduler.run(settle=...)`` a window longer than the hold time when
  silent failures must still be detected).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Set, Tuple

from ..engine import Scheduler, Timer
from ..errors import ConfigError

SendKeepalive = Callable[[int], None]
SessionDown = Callable[[int], None]
SessionUp = Callable[[int], None]
Connect = Callable[[int], None]

DEFAULT_RETRY_JITTER = (0.75, 1.0)
"""ConnectRetry jitter range, mirroring the MRAI convention."""


class SessionManager:
    """Per-neighbor session lifecycle (hold/keepalive/ConnectRetry) for one
    speaker.

    Parameters
    ----------
    scheduler:
        The simulation scheduler.
    hold_time:
        Seconds of silence after which a peer is declared dead.
    keepalive_interval:
        Spacing of outbound keepalives (must be < hold_time; RFC suggests
        a third).
    send_keepalive:
        ``callback(neighbor)`` that transmits a keepalive (the speaker
        guards physical link state).
    on_session_down:
        ``callback(neighbor)`` invoked when the hold timer expires; the
        speaker purges the neighbor's routes exactly as for a link-down.
    connect:
        ``callback(neighbor)`` invoked when the ConnectRetry timer fires;
        the speaker sends an OPEN if the link is up (``None`` disables
        automatic reconnection — the seed's behavior).
    on_session_up:
        ``callback(neighbor)`` invoked when a lost session re-establishes;
        the speaker re-advertises its full Adj-RIB-Out (the RFC 1771
        initial table exchange).
    retry_base, retry_cap:
        ConnectRetry backoff: attempt ``k`` waits
        ``min(cap, base * 2**k)`` seconds, scaled by jitter.
    rng:
        Source for retry-jitter draws (a named stream from the run's
        :class:`~repro.engine.rng.RandomStreams`); ``None`` disables jitter.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        hold_time: float,
        keepalive_interval: float,
        send_keepalive: SendKeepalive,
        on_session_down: SessionDown,
        connect: Optional[Connect] = None,
        on_session_up: Optional[SessionUp] = None,
        retry_base: float = 1.0,
        retry_cap: float = 60.0,
        retry_jitter: Tuple[float, float] = DEFAULT_RETRY_JITTER,
        rng: Optional[random.Random] = None,
    ) -> None:
        if hold_time <= 0:
            raise ConfigError(f"hold_time must be positive, got {hold_time}")
        if not 0 < keepalive_interval < hold_time:
            raise ConfigError(
                f"keepalive_interval must be in (0, hold_time), got "
                f"{keepalive_interval} vs {hold_time}"
            )
        if retry_base <= 0 or retry_cap < retry_base:
            raise ConfigError(
                f"retry backoff must satisfy 0 < base <= cap, got "
                f"{retry_base} vs {retry_cap}"
            )
        low, high = retry_jitter
        if not 0 < low <= high:
            raise ConfigError(f"retry_jitter must satisfy 0 < low <= high: {retry_jitter}")
        self._scheduler = scheduler
        self._hold_time = hold_time
        self._keepalive_interval = keepalive_interval
        self._send_keepalive = send_keepalive
        self._on_session_down = on_session_down
        self._connect = connect
        self._on_session_up = on_session_up
        self._retry_base = retry_base
        self._retry_cap = retry_cap
        self._retry_jitter = retry_jitter
        self._rng = rng
        self._hold_timers: Dict[int, Timer] = {}
        self._keepalive_timers: Dict[int, Timer] = {}
        self._retry_timers: Dict[int, Timer] = {}
        self._retry_attempts: Dict[int, int] = {}
        self._established: Set[int] = set()
        self.sessions_lost = 0
        self.sessions_reestablished = 0
        self.connect_attempts = 0

    # ------------------------------------------------------------------

    def established(self, neighbor: int) -> bool:
        """True while the session to ``neighbor`` is considered alive."""
        return neighbor in self._established

    @property
    def established_count(self) -> int:
        return len(self._established)

    def retry_pending(self, neighbor: int) -> bool:
        """True while a ConnectRetry attempt toward ``neighbor`` is armed."""
        timer = self._retry_timers.get(neighbor)
        return timer is not None and timer.running

    # ------------------------------------------------------------------

    def establish(self, neighbor: int) -> None:
        """Bring the session up and start both timers (idempotent).

        A (re-)establishment cancels any pending ConnectRetry and resets
        its backoff; when the session had been lost before, the
        ``on_session_up`` callback fires so the speaker re-exchanges its
        table.
        """
        if neighbor in self._established:
            return
        self._established.add(neighbor)
        self._cancel_retry(neighbor)
        was_reconnect = self._retry_attempts.pop(neighbor, 0) > 0
        hold = self._hold_timers.get(neighbor)
        if hold is None:
            hold = Timer(
                self._scheduler,
                callback=lambda n=neighbor: self._hold_expired(n),
                name=f"hold:{neighbor}",
                housekeeping=True,
            )
            self._hold_timers[neighbor] = hold
        hold.restart(self._hold_time)

        keepalive = self._keepalive_timers.get(neighbor)
        if keepalive is None:
            keepalive = Timer(
                self._scheduler,
                callback=lambda n=neighbor: self._keepalive_due(n),
                name=f"keepalive:{neighbor}",
                housekeeping=True,
            )
            self._keepalive_timers[neighbor] = keepalive
        keepalive.restart(self._keepalive_interval)
        if was_reconnect:
            self.sessions_reestablished += 1
        if self._on_session_up is not None:
            self._on_session_up(neighbor)

    def message_received(self, neighbor: int) -> None:
        """Any message from the peer proves liveness: refresh its hold."""
        if neighbor in self._established:
            self._hold_timers[neighbor].restart(self._hold_time)

    def teardown(self, neighbor: int) -> None:
        """Stop tracking the peer (link-down notification or hold expiry).

        Cancels every timer including a pending ConnectRetry — reconnection
        after an interface-level loss is driven by the link-up
        notification, not by retries into a dead link.
        """
        self._established.discard(neighbor)
        for timers in (self._hold_timers, self._keepalive_timers):
            timer = timers.get(neighbor)
            if timer is not None:
                timer.cancel()
        self._cancel_retry(neighbor)

    def teardown_all(self) -> None:
        """Cancel every timer (end of a manually-driven simulation)."""
        for neighbor in sorted(self._established):
            self.teardown(neighbor)
        for neighbor in list(self._retry_timers):
            self._cancel_retry(neighbor)

    def shutdown(self) -> None:
        """Drop all session state and timers (the router crashed)."""
        self.teardown_all()
        self._retry_attempts.clear()

    # ------------------------------------------------------------------
    # ConnectRetry
    # ------------------------------------------------------------------

    def start_reconnect(self, neighbor: int, immediate: bool = False) -> None:
        """Arm the ConnectRetry timer toward a lost peer.

        Each attempt doubles the wait (``retry_base``, capped at
        ``retry_cap``), scaled by jitter so simultaneous losses do not
        retry in lockstep.  ``immediate=True`` resets the backoff first
        (used on a fresh session reset, where the peer is expected back
        momentarily).  No-op while the session is up or a retry is armed.
        """
        if self._connect is None:
            return
        if neighbor in self._established or self.retry_pending(neighbor):
            return
        if immediate:
            self._retry_attempts.pop(neighbor, None)
        attempt = self._retry_attempts.get(neighbor, 0)
        self._retry_attempts[neighbor] = attempt + 1
        delay = min(self._retry_cap, self._retry_base * (2 ** attempt))
        if self._rng is not None:
            low, high = self._retry_jitter
            delay *= self._rng.uniform(low, high)
        timer = self._retry_timers.get(neighbor)
        if timer is None:
            timer = Timer(
                self._scheduler,
                callback=lambda n=neighbor: self._retry_due(n),
                name=f"connect-retry:{neighbor}",
            )
            self._retry_timers[neighbor] = timer
        timer.restart(delay)

    def _retry_due(self, neighbor: int) -> None:
        if neighbor in self._established:
            return
        self.connect_attempts += 1
        assert self._connect is not None
        self._connect(neighbor)

    def _cancel_retry(self, neighbor: int) -> None:
        timer = self._retry_timers.get(neighbor)
        if timer is not None:
            timer.cancel()

    # ------------------------------------------------------------------

    def _hold_expired(self, neighbor: int) -> None:
        self.sessions_lost += 1
        self.teardown(neighbor)
        self._on_session_down(neighbor)
        # The peer fell silent but the interface may still be up (silent
        # failure, remote crash): keep probing with backoff.  If the link
        # is in fact down, the connect callback goes dormant until link-up.
        self.start_reconnect(neighbor)

    def _keepalive_due(self, neighbor: int) -> None:
        if neighbor not in self._established:
            return
        self._send_keepalive(neighbor)
        self._keepalive_timers[neighbor].restart(self._keepalive_interval)
