"""Route-flap damping (RFC 2439).

Damping penalizes unstable routes: every flap (withdrawal, or announcement
that changes the path) adds to a per-(peer, prefix) penalty that decays
exponentially with a configured half-life; above the suppress threshold the
peer's route is ignored by the decision process until the penalty decays
below the reuse threshold.

Included here both as a standard BGP mechanism and as a known *pathology*:
Mao et al. (SIGCOMM 2002) showed that the path exploration following a
single topology change looks like flapping to a damper, so damping can
suppress perfectly good routes and significantly lengthen convergence —
the ``repro figure damping`` claims row reproduces that interaction on
this simulator.

Implementation notes:

* Penalty is stored as ``(value, timestamp)`` and decayed lazily:
  ``value × 2^(-(now - timestamp) / half_life)``.
* While suppressed, a reuse check is scheduled for the exact instant the
  penalty will cross the reuse threshold, so the scheduler still quiesces.
* Penalties are capped so suppression can never exceed
  ``max_suppress_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..engine import Scheduler, Timer
from ..errors import ConfigError
from .messages import Prefix


@dataclass(frozen=True)
class DampingConfig:
    """RFC 2439 parameters (defaults are the RFC's examples).

    The paper-scale simulations use much shorter half-lives than the
    real-world 15 minutes so damping dynamics fit inside one experiment.
    """

    withdrawal_penalty: float = 1000.0
    attribute_change_penalty: float = 500.0
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    half_life: float = 900.0
    max_suppress_time: float = 3600.0

    def __post_init__(self) -> None:
        if min(self.withdrawal_penalty, self.attribute_change_penalty) < 0:
            raise ConfigError("penalties must be >= 0")
        if not 0 < self.reuse_threshold < self.suppress_threshold:
            raise ConfigError(
                "must satisfy 0 < reuse_threshold < suppress_threshold, got "
                f"{self.reuse_threshold} vs {self.suppress_threshold}"
            )
        if self.half_life <= 0:
            raise ConfigError(f"half_life must be positive, got {self.half_life}")
        if self.max_suppress_time <= 0:
            raise ConfigError("max_suppress_time must be positive")

    @property
    def penalty_ceiling(self) -> float:
        """Cap implementing max_suppress_time: the penalty from which decay
        to the reuse threshold takes exactly that long."""
        return self.reuse_threshold * 2 ** (self.max_suppress_time / self.half_life)


ReuseCallback = Callable[[int, Prefix], None]


class RouteFlapDamper:
    """Per-(peer, prefix) flap accounting for one speaker.

    The speaker reports flaps via :meth:`record_withdrawal` /
    :meth:`record_change`, consults :meth:`is_suppressed` before using a
    peer's route, and receives ``on_reuse(peer, prefix)`` when a suppressed
    pair becomes usable again.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        config: DampingConfig,
        on_reuse: ReuseCallback,
    ) -> None:
        self._scheduler = scheduler
        self._config = config
        self._on_reuse = on_reuse
        self._penalty: Dict[Tuple[int, Prefix], Tuple[float, float]] = {}
        self._suppressed: Dict[Tuple[int, Prefix], Timer] = {}
        self.suppressions = 0
        self.reuses = 0

    # ------------------------------------------------------------------

    def current_penalty(self, peer: int, prefix: Prefix) -> float:
        """The decayed penalty right now."""
        entry = self._penalty.get((peer, prefix))
        if entry is None:
            return 0.0
        value, stamp = entry
        elapsed = self._scheduler.now - stamp
        return value * 2 ** (-elapsed / self._config.half_life)

    def is_suppressed(self, peer: int, prefix: Prefix) -> bool:
        """True while the peer's route for the prefix must not be used."""
        return (peer, prefix) in self._suppressed

    # ------------------------------------------------------------------

    def record_withdrawal(self, peer: int, prefix: Prefix) -> None:
        """The peer withdrew (or implicitly invalidated) its route."""
        self._add_penalty(peer, prefix, self._config.withdrawal_penalty)

    def record_change(self, peer: int, prefix: Prefix) -> None:
        """The peer re-announced with different attributes (path change)."""
        self._add_penalty(peer, prefix, self._config.attribute_change_penalty)

    def _add_penalty(self, peer: int, prefix: Prefix, amount: float) -> None:
        key = (peer, prefix)
        penalty = min(
            self.current_penalty(peer, prefix) + amount,
            self._config.penalty_ceiling,
        )
        self._penalty[key] = (penalty, self._scheduler.now)
        if penalty >= self._config.suppress_threshold and key not in self._suppressed:
            self._suppress(key, penalty)
        elif key in self._suppressed:
            # Already suppressed: the reuse instant moved; re-arm.
            self._suppressed[key].restart(self._reuse_delay(penalty))

    def _suppress(self, key: Tuple[int, Prefix], penalty: float) -> None:
        self.suppressions += 1
        peer, prefix = key
        timer = Timer(
            self._scheduler,
            callback=lambda: self._reuse(key),
            name=f"damping-reuse:{peer}:{prefix}",
        )
        timer.start(self._reuse_delay(penalty))
        self._suppressed[key] = timer

    def _reuse_delay(self, penalty: float) -> float:
        """Seconds until ``penalty`` decays to the reuse threshold."""
        ratio = penalty / self._config.reuse_threshold
        if ratio <= 1.0:
            return 0.0
        return self._config.half_life * math.log2(ratio)

    def _reuse(self, key: Tuple[int, Prefix]) -> None:
        self._suppressed.pop(key, None)
        self.reuses += 1
        peer, prefix = key
        self._on_reuse(peer, prefix)

    def cancel_peer(self, peer: int) -> None:
        """Forget all damping state toward a dead peer."""
        for key in [k for k in self._suppressed if k[0] == peer]:
            self._suppressed.pop(key).cancel()
        for key in [k for k in self._penalty if k[0] == peer]:
            del self._penalty[key]
