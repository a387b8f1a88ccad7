"""The discrete-event scheduler.

This is the core of the simulation substrate that replaces SSFNET's event
kernel in the original study.  It is a classic calendar-of-events design: a
binary heap of :class:`~repro.engine.event.Event` objects, popped in
``(time, priority, sequence)`` order.

Design points that matter for reproducing the paper:

* **Determinism** — for a fixed seed every run pops events in the same order,
  because simultaneous events are tie-broken by scheduling sequence number.
* **Lazy cancellation** — protocol code cancels and re-arms MRAI timers
  constantly; cancellation just flags the event and the heap skips it later.
* **Run guards** — ``run()`` accepts both a time horizon and an event-count
  budget so runaway protocol bugs fail loudly instead of spinning forever.
* **Housekeeping events** — periodic background activity (BGP keepalives,
  hold-timer re-arms) can be scheduled with ``housekeeping=True``; such
  events never block quiescence detection, so session-mode simulations work
  with run-to-quiescence instead of requiring a fixed horizon.  A ``settle``
  window lets housekeeping keep firing for a bounded quiet period after the
  last substantive event, so detections that *ride on* housekeeping timers
  (a hold expiry after a silent failure) still get their chance to fire.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from .event import Event, EventPriority
from .observer import Observer, Observers

#: Heap entries are ``(time, priority, seq, event)`` tuples rather than bare
#: events: ``seq`` is unique, so heap comparisons resolve on the first three
#: (C-level) int/float fields and never fall through to the event object.
HeapEntry = Tuple[float, int, int, Event]

#: Compact the heap once at least this many cancelled entries have piled up
#: *and* they make up at least half the heap (see ``_note_cancelled``).
COMPACTION_MIN_CANCELLED = 64


class Scheduler:
    """A deterministic discrete-event scheduler.

    Typical use::

        sched = Scheduler()
        sched.call_at(1.5, lambda: print("fires at t=1.5"))
        sched.run(until=10.0)
    """

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._cancelled_pending = 0
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._last_event_time: Optional[float] = None
        self._last_substantive_time: Optional[float] = None
        self._substantive = 0
        #: What watches this run (see :mod:`repro.engine.observer`); ``None``
        #: means nothing does, and costs one attribute read per hook site.
        self.observer: Optional[Observer] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def last_event_time(self) -> Optional[float]:
        """Time of the most recently fired event (``None`` before any).

        Unlike :attr:`now`, this does not advance when ``run(until=...)``
        moves the clock to an event-free horizon, so it marks the true
        quiescence point of a simulation.
        """
        return self._last_event_time

    @property
    def last_substantive_event_time(self) -> Optional[float]:
        """Time of the most recent non-housekeeping event (``None`` before any).

        This is the quiescence point of the *routing* activity: keepalive
        heartbeats and other housekeeping events do not move it.
        """
        return self._last_substantive_time

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def substantive_pending(self) -> int:
        """Number of live non-housekeeping events still pending.

        Zero means the simulation has quiesced up to housekeeping heartbeats
        (exact count: cancellations are reflected immediately).
        """
        return self._substantive

    def _adjust_substantive(self, delta: int) -> None:
        """Internal: events report cancellation/upgrade to keep the count exact."""
        self._substantive += delta

    def _note_cancelled(self) -> None:
        """Internal: a pending event was cancelled; compact if mostly dead.

        MRAI restart churn (cancel + re-arm per update sent) leaves lazily-
        deleted entries in the heap; once they are both numerous and the
        majority, rebuilding the heap without them is cheaper than sifting
        every later push/pop past them.  Compaction cannot change pop order:
        ``(time, priority, seq)`` is a strict total order, so the heapified
        survivors pop exactly as they would have.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= COMPACTION_MIN_CANCELLED
            and self._cancelled_pending * 2 >= len(self._heap)
        ):
            self._heap = [entry for entry in self._heap if not entry[3].cancelled]
            heapq.heapify(self._heap)
            self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(self, *observers: Observer) -> None:
        """Install the observers that watch this run, in call order (none:
        remove any).  Several share the seam through :class:`Observers`."""
        if len(observers) > 1:
            self.observer = Observers(observers)
        else:
            self.observer = observers[0] if observers else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = EventPriority.TIMER,
        name: Optional[str] = None,
        housekeeping: bool = False,
    ) -> Event:
        """Schedule ``action`` to run at absolute simulation time ``time``.

        ``housekeeping=True`` marks the event as background activity that
        must not block quiescence detection (see the module docstring).
        Returns the :class:`Event` handle, which supports ``cancel()``.
        Raises :class:`SchedulingError` if ``time`` is in the past.
        """
        observer = self.observer
        if observer is not None:
            observer.on_schedule(self._now, time, name, housekeeping)
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event {name or action!r} at t={time}; "
                f"clock is already at t={self._now}"
            )
        event = Event(
            time,
            int(priority),
            self._seq,
            action,
            name,
            housekeeping=housekeeping,
            counter=self,
        )
        self._seq += 1
        if not housekeeping:
            self._substantive += 1
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def call_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = EventPriority.TIMER,
        name: Optional[str] = None,
        housekeeping: bool = False,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for {name or action!r}")
        return self.call_at(self._now + delay, action, priority, name, housekeeping)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask a running simulation to stop after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the single next non-cancelled event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            if event.time < self._now:
                raise SchedulingError(
                    f"heap returned event {event!r} earlier than clock {self._now}"
                )
            observer = self.observer
            if observer is not None:
                observer.on_event_fired(
                    self._now, event.time, event.name, len(self._heap)
                )
            self._now = event.time
            self._events_processed += 1
            self._last_event_time = event.time
            event._fired = True
            if not event.housekeeping:
                self._substantive -= 1
                self._last_substantive_time = event.time
            event.action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        settle: Optional[float] = None,
    ) -> float:
        """Run events until quiescence, a time horizon, or an event budget.

        Parameters
        ----------
        until:
            Absolute simulation time at which to stop.  Events scheduled at
            exactly ``until`` still fire; later ones stay queued.  ``None``
            means run to quiescence: no substantive events pending (pure
            housekeeping heartbeats — keepalive schedules and the like — do
            not keep the simulation alive).
        max_events:
            Fail-safe budget; exceeding it raises :class:`SchedulingError`
            because a healthy routing simulation always quiesces.
        settle:
            Quiet-period length in seconds.  When given, housekeeping events
            keep firing after substantive activity stops, and the run only
            ends once ``settle`` seconds of simulated time pass with no
            substantive event.  This gives detections carried *by*
            housekeeping timers — a BGP hold timer expiring after a silent
            failure — their window to fire; pick a settle longer than the
            longest such timer.  Ignored while substantive events remain.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SchedulingError("scheduler is not re-entrant; run() already active")
        self._running = True
        self._stopped = False
        fired = 0
        quiet_origin = self._now
        try:
            while self._heap and not self._stopped:
                nxt = self._heap[0][3]
                if nxt.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled_pending -= 1
                    continue
                if self._substantive == 0:
                    if settle is None:
                        if until is None:
                            break
                        # Horizon mode without settle: housekeeping runs to
                        # the horizon (legacy, e.g. manually-driven session
                        # simulations that inspect timer-driven behavior).
                    else:
                        quiet_since = (
                            self._last_substantive_time
                            if self._last_substantive_time is not None
                            else quiet_origin
                        )
                        if nxt.time > quiet_since + settle:
                            break
                if until is not None and nxt.time > until:
                    self._now = until
                    break
                if not self.step():
                    break
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SchedulingError(
                        f"exceeded event budget of {max_events} events at "
                        f"t={self._now}; the protocol is likely not converging"
                    )
            else:
                if until is not None and self._now < until and not self._stopped:
                    # Heap drained before the horizon: advance clock to it so
                    # post-run measurements (e.g. traffic windows) line up.
                    self._now = until
        finally:
            self._running = False
        return self._now

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when quiescent."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_pending -= 1
        return self._heap[0][0] if self._heap else None

    def next_substantive_time(self) -> Optional[float]:
        """Time of the next pending substantive event, ``None`` if only
        housekeeping (or nothing) remains.  O(pending); diagnostics use."""
        if self._substantive == 0:
            return None
        times = [
            e.time
            for _, _, _, e in self._heap
            if not e.cancelled and not e.housekeeping
        ]
        return min(times) if times else None

    def pending_by_name(self) -> Dict[str, int]:
        """Live pending events grouped by name family (diagnostics).

        The family is the event name up to the first ``:`` — e.g. every
        ``mrai:<peer>:<prefix>`` timer counts under ``"mrai"``.
        """
        counts: Counter = Counter()
        for _, _, _, event in self._heap:
            if not event.cancelled:
                counts[(event.name or "<anonymous>").split(":", 1)[0]] += 1
        return dict(counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheduler t={self._now:.6f} pending={len(self._heap)}>"
