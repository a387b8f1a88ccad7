"""The one observation seam: what watches a run without changing it.

The :class:`~repro.engine.scheduler.Scheduler` owns one ``observer``
attribute (``None``: nothing observes).  The engine, net and bgp layers
reach it through their scheduler reference and call its hooks at their
instrumentation points, each behind a single ``is not None`` guard, so a
run nobody watches pays one attribute read per site.  The runtime
sanitizers (:mod:`repro.analysis.sanitizers`) and the telemetry probe
(:mod:`repro.telemetry.probe`) are observers; the engine imports neither.

Observers only observe: they never schedule, draw randomness or mutate
protocol state, so installing any of them leaves a run's digest as it is.
Where a hook's arguments cost something to compute, the site computes them
only when an observer is installed.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence


class Observer:
    """The hook API: every hook is a no-op, subclasses override what they
    watch.  ``describe()`` feeds diagnostic snapshots."""

    # -- engine (Scheduler) --------------------------------------------

    def on_schedule(
        self, now: float, time: float, name: Optional[str], housekeeping: bool
    ) -> None:
        """An event is being inserted into the heap (before the scheduler's
        own past-time check)."""

    def on_event_fired(
        self, now: float, time: float, name: Optional[str], heap_depth: int
    ) -> None:
        """A live event was popped and is about to run; ``now`` is the
        clock before it advances."""

    # -- net (Channel, Node) -------------------------------------------

    def on_channel_send(
        self,
        src: int,
        dst: int,
        message: Any,
        generation: int,
        sequence: int,
        now: float,
        in_flight: int,
    ) -> None:
        """Channel ``src -> dst`` accepted ``message``, stamped
        ``(generation, sequence)``; ``in_flight`` includes it."""

    def on_channel_deliver(
        self,
        src: int,
        dst: int,
        message: Any,
        generation: int,
        sequence: int,
        now: float,
    ) -> None:
        """``message`` is arriving at ``dst`` from ``src``."""

    def on_channel_flush(
        self, src: int, dst: int, generation: int, destroyed: int
    ) -> None:
        """The channel destroyed its ``destroyed`` in-flight messages
        (session reset or link down); ``generation`` is the one that ended."""

    def on_cpu_enqueue(self, node: int, queue_length: int) -> None:
        """A message joined ``node``'s CPU queue behind ``queue_length``."""

    # -- bgp (BgpSpeaker) ----------------------------------------------

    def on_decision(self, speaker: Any, prefix: str) -> None:
        """``speaker`` finished its decision process for ``prefix``."""

    def on_announcement(self, speaker: Any, peer: int, prefix: str, path: Any) -> None:
        """``speaker`` is about to announce ``path`` to ``peer``."""

    def on_withdrawal(self, speaker: Any, peer: int, prefix: str) -> None:
        """``speaker`` is about to withdraw ``prefix`` from ``peer``."""

    def on_mrai_expiry(self, time: float, node: int, peer: int, prefix: str) -> None:
        """An MRAI timer toward ``peer`` expired (``prefix`` is ``"*"``
        when it held several)."""

    def on_update_suppressed(
        self, node: int, peer: int, prefix: str, reason: str
    ) -> None:
        """An update the speaker wanted to send but held: ``reason`` is
        ``"mrai"``, ``"wrate"`` or ``"duplicate"``."""

    def on_variant_extra(self, node: int, kind: str) -> None:
        """A variant-specific action (``ssld_conversion``, ``ghost_flush``,
        ``poison_reverse``, ``assertion_removal``)."""

    def on_fib_change(
        self, time: float, node: int, prefix: str, next_hop: Optional[int]
    ) -> None:
        """``node`` committed a new forwarding entry for ``prefix``."""

    # -- reporting -----------------------------------------------------

    def describe(self) -> List[str]:
        """Human-readable state lines for diagnostic snapshots."""
        return []


#: Every hook a site may call: the ``on_*`` methods of :class:`Observer`.
HOOKS = tuple(name for name in vars(Observer) if name.startswith("on_"))


class Observers(Observer):
    """Several observers behind the one seam, called in the given order.

    Each hook forwards only to the members that override it: a hook one
    member overrides is that member's bound method, and a hook none
    overrides stays the base no-op, so a member pays nothing for the hooks
    it does not watch.
    """

    def __init__(self, members: Sequence[Observer]) -> None:
        self.members = tuple(members)
        for hook in HOOKS:
            calls = [
                getattr(member, hook)
                for member in self.members
                if getattr(type(member), hook) is not getattr(Observer, hook)
            ]
            if len(calls) == 1:
                setattr(self, hook, calls[0])
            elif calls:
                setattr(self, hook, _fan_out(calls))

    def describe(self) -> List[str]:
        return [line for member in self.members for line in member.describe()]


def _fan_out(calls: List[Callable[..., None]]) -> Callable[..., None]:
    def hook(*args: Any) -> None:
        for call in calls:
            call(*args)

    return hook

