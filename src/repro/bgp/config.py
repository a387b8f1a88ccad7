"""Configuration for a BGP speaker / protocol variant.

One immutable :class:`BgpConfig` describes everything that distinguishes the
five protocols the paper compares: the MRAI value, and which of the four
convergence enhancements are active.  The paper's simulator settings
(processing delay U[0.1, 0.5] s) live here too, so an experiment is fully
described by ``(topology, event, BgpConfig, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigError
from .damping import DampingConfig
from .mrai import DEFAULT_JITTER, DEFAULT_MRAI, MRAI_MODES, MRAI_PER_PREFIX

DEFAULT_PROCESSING_DELAY = (0.1, 0.5)
"""The paper's routing-message processing delay: uniform on [0.1 s, 0.5 s]."""


@dataclass(frozen=True)
class BgpConfig:
    """Immutable knobs for one speaker.

    Attributes
    ----------
    mrai:
        The Minimum Route Advertisement Interval M in seconds (0 disables).
    mrai_jitter:
        Multiplicative jitter range applied each time a timer is armed.
    mrai_mode:
        ``"per-prefix"`` (the paper's per-(destination, neighbor) timers —
        the default) or ``"per-peer"`` (one timer per neighbor shared by
        every prefix; expiry flushes all held prefixes in one round).
    batch_updates:
        Pack all same-instant updates toward one peer into a single
        :class:`~repro.bgp.messages.UpdateBatch` (RFC 4271-style NLRI +
        withdrawn lists) instead of one message per prefix.
    processing_delay:
        ``(low, high)`` of the uniform per-message CPU service time.
    wrate:
        Withdrawal Rate Limiting — MRAI applies to withdrawals too
        (adopted as standard by the post-RFC1771 specification drafts).
    ssld:
        Sender-Side Loop Detection — a path the receiver would discard is
        replaced by an immediate withdrawal.
    assertion:
        The Assertion approach — receiving a route invalidates stored
        routes that are provably inconsistent with it.
    ghost_flushing:
        Ghost Flushing — moving to a longer path while MRAI holds the
        announcement triggers an immediate withdrawal "flush".
    connect_retry / connect_retry_cap:
        ConnectRetry backoff for session re-establishment: attempt ``k``
        waits ``min(cap, base * 2**k)`` seconds (jittered).  Only relevant
        when sessions are enabled.
    """

    mrai: float = DEFAULT_MRAI
    mrai_jitter: Tuple[float, float] = DEFAULT_JITTER
    mrai_mode: str = MRAI_PER_PREFIX
    batch_updates: bool = False
    processing_delay: Tuple[float, float] = DEFAULT_PROCESSING_DELAY
    wrate: bool = False
    ssld: bool = False
    assertion: bool = False
    ghost_flushing: bool = False
    hold_time: float = 0.0
    keepalive_interval: float = 0.0
    connect_retry: float = 1.0
    connect_retry_cap: float = 60.0
    damping: Optional[DampingConfig] = None

    def __post_init__(self) -> None:
        if self.mrai < 0:
            raise ConfigError(f"mrai must be >= 0, got {self.mrai}")
        low, high = self.mrai_jitter
        if not (0 < low <= high):
            raise ConfigError(f"mrai_jitter must satisfy 0 < low <= high: {self.mrai_jitter}")
        if self.mrai_mode not in MRAI_MODES:
            raise ConfigError(
                f"mrai_mode must be one of {sorted(MRAI_MODES)}, got {self.mrai_mode!r}"
            )
        lo, hi = self.processing_delay
        if not (0 <= lo <= hi):
            raise ConfigError(
                f"processing_delay must satisfy 0 <= low <= high: {self.processing_delay}"
            )
        if self.hold_time < 0:
            raise ConfigError(f"hold_time must be >= 0, got {self.hold_time}")
        if self.keepalive_interval < 0:
            raise ConfigError(
                f"keepalive_interval must be >= 0, got {self.keepalive_interval}"
            )
        if self.hold_time > 0 and self.effective_keepalive >= self.hold_time:
            raise ConfigError(
                f"keepalive interval {self.effective_keepalive} must be "
                f"shorter than hold time {self.hold_time}"
            )
        if self.connect_retry <= 0 or self.connect_retry_cap < self.connect_retry:
            raise ConfigError(
                f"connect retry must satisfy 0 < base <= cap, got "
                f"{self.connect_retry} vs {self.connect_retry_cap}"
            )

    @property
    def sessions_enabled(self) -> bool:
        """True when the keepalive/hold-timer session layer is active.

        With sessions off (the default, and the paper's model) a speaker
        learns of adjacency failures instantly from the interface; with
        sessions on, a *silent* failure is detected only when the hold
        timer expires, and a lost session re-establishes via ConnectRetry
        (``connect_retry``/``connect_retry_cap`` backoff).  Keepalive and
        hold timers are housekeeping events, so session mode works with the
        run-to-quiescence harness — give the run a ``settle`` window longer
        than the hold time so pending detections still fire.
        """
        return self.hold_time > 0

    @property
    def effective_keepalive(self) -> float:
        """The keepalive interval in force (defaults to hold_time / 3)."""
        if self.keepalive_interval > 0:
            return self.keepalive_interval
        return self.hold_time / 3.0

    # ------------------------------------------------------------------
    # Named variants (the five protocols of §5)
    # ------------------------------------------------------------------

    @classmethod
    def standard(cls, mrai: float = DEFAULT_MRAI) -> "BgpConfig":
        """Standard BGP per RFC 1771 (withdrawals not rate-limited)."""
        return cls(mrai=mrai)

    @property
    def variant_name(self) -> str:
        """Short human-readable name of the enabled enhancement set."""
        enabled = [
            name
            for name, active in (
                ("ssld", self.ssld),
                ("wrate", self.wrate),
                ("assertion", self.assertion),
                ("ghost-flushing", self.ghost_flushing),
            )
            if active
        ]
        return "+".join(enabled) if enabled else "standard"
