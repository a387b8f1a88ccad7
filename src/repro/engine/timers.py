"""Restartable one-shot timers built on the scheduler.

Routing protocols arm, disarm, and re-arm many timers (one MRAI timer per
(destination, peer) pair in this study).  :class:`Timer` wraps the raw event
handle with the start/cancel/expire lifecycle so protocol code never touches
heap entries directly.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SimulationError
from .event import Event, EventPriority
from .scheduler import Scheduler


class Timer:
    """A one-shot, restartable timer.

    The callback runs once per ``start()`` unless ``cancel()`` intervenes.
    Restarting a running timer is an explicit error: protocol code in this
    library must decide whether to extend or ignore, and silent re-arming is
    a classic source of convergence-simulation bugs.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        callback: Callable[[], None],
        name: str = "timer",
        housekeeping: bool = False,
    ) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._name = name
        self._housekeeping = housekeeping
        self._event: Optional[Event] = None
        self._expires_at: Optional[float] = None

    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the timer is armed and has not yet fired."""
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time while running, else ``None``."""
        return self._expires_at if self.running else None

    def remaining(self) -> float:
        """Seconds until expiry; 0.0 when not running."""
        if not self.running:
            return 0.0
        assert self._expires_at is not None
        return max(0.0, self._expires_at - self._scheduler.now)

    # ------------------------------------------------------------------

    def start(self, delay: float) -> None:
        """Arm the timer to fire ``delay`` seconds from now."""
        if self.running:
            raise SimulationError(
                f"timer {self._name!r} started while already running; "
                "cancel() or restart() first"
            )
        self._expires_at = self._scheduler.now + delay
        self._event = self._scheduler.call_after(
            delay,
            self._fire,
            priority=EventPriority.TIMER,
            name=self._name,
            housekeeping=self._housekeeping,
        )

    def restart(self, delay: float) -> None:
        """Cancel any pending expiry and arm for ``delay`` seconds from now."""
        self.cancel()
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer; a no-op when it is not running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
            self._expires_at = None

    def _fire(self) -> None:
        self._event = None
        self._expires_at = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires={self._expires_at:.3f}" if self.running else "idle"
        return f"<Timer {self._name!r} {state}>"
