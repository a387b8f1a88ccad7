"""Opt-in runtime sanitizers: simulation invariants checked while running.

The static linter (:mod:`repro.analysis.lint`) catches nondeterminism
*patterns*; the sanitizers catch invariant *violations* in a live
simulation.  Each sanitizer is an :class:`~repro.engine.observer.Observer`
on the scheduler's one observation seam, overriding only the hooks it
checks: the scheduler reports schedules and firings, channels report
sends, deliveries and flushes with their ``(generation, sequence)``
stamps, and speakers report every decision run and every update just
before it is emitted.  The runner installs the three of them (and the
telemetry probe, when asked) with ``scheduler.observe(...)``.

The shipped sanitizers:

:class:`CausalitySanitizer`
    No event may be scheduled before current simulation time, and fired
    events must be non-decreasing in time.
:class:`FifoSanitizer`
    Per-channel sequence numbers assert reliable in-order delivery:
    within one channel generation (generations advance when in-flight
    messages are destroyed), delivered sequence numbers are exactly
    contiguous and arrival times non-decreasing.
:class:`RibCoherenceSanitizer`
    A speaker's Loc-RIB entry is always the decision-process winner over
    its Adj-RIB-In, the FIB mirrors the Loc-RIB, and rate-limited
    updates are only emitted when their MRAI timer permits.

Violations raise :class:`~repro.errors.SanitizerError`, which derives
from :class:`~repro.errors.ReproError` but *not* from
``SimulationError`` — a tripped sanitizer is a simulator bug, so sweeps
must not absorb it as an ordinary trial failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..engine import Observer
from ..errors import SanitizerError


class CausalitySanitizer(Observer):
    """No time travel: scheduling into the past or firing out of order."""

    def __init__(self) -> None:
        self.schedules_checked = 0
        self.events_checked = 0
        self._last_fired: Optional[float] = None

    def on_schedule(
        self, now: float, time: float, name: Optional[str], housekeeping: bool
    ) -> None:
        self.schedules_checked += 1
        if time < now:
            raise SanitizerError(
                f"causality: event {name or '<anonymous>'!r} scheduled at "
                f"t={time} while the clock is at t={now}"
            )

    def on_event_fired(
        self, now: float, time: float, name: Optional[str], heap_depth: int
    ) -> None:
        self.events_checked += 1
        if self._last_fired is not None and time < self._last_fired:
            raise SanitizerError(
                f"causality: event {name or '<anonymous>'!r} fired at "
                f"t={time}, after an event at t={self._last_fired}"
            )
        self._last_fired = time

    def describe(self) -> List[str]:
        return [
            f"causality: {self.schedules_checked} schedules, "
            f"{self.events_checked} firings checked"
        ]


class FifoSanitizer(Observer):
    """Reliable in-order delivery per channel generation.

    A channel generation ends whenever in-flight messages are destroyed
    (session reset, link failure); within a generation the delivered
    sequence numbers must form the exact contiguous prefix of the sent
    ones, and arrival times must be non-decreasing.
    """

    def __init__(self) -> None:
        self.deliveries_checked = 0
        # (src, dst) -> (generation, last delivered seq, last arrival time)
        self._state: Dict[Tuple[int, int], Tuple[int, int, float]] = {}

    def on_channel_deliver(
        self,
        src: int,
        dst: int,
        message: Any,
        generation: int,
        sequence: int,
        time: float,
    ) -> None:
        self.deliveries_checked += 1
        key = (src, dst)
        gen, last_seq, last_time = self._state.get(key, (generation, 0, time))
        if generation < gen:
            raise SanitizerError(
                f"fifo: channel {src}->{dst} delivered a message from dead "
                f"generation {generation} (current {gen})"
            )
        if generation > gen:
            gen, last_seq = generation, 0
        if sequence != last_seq + 1:
            raise SanitizerError(
                f"fifo: channel {src}->{dst} delivered seq {sequence} after "
                f"seq {last_seq} (generation {gen}); reliable FIFO requires "
                f"{last_seq + 1}"
            )
        if time < last_time:
            raise SanitizerError(
                f"fifo: channel {src}->{dst} delivery at t={time} precedes "
                f"the previous delivery at t={last_time}"
            )
        self._state[key] = (gen, sequence, time)

    def on_channel_flush(
        self, src: int, dst: int, generation: int, destroyed: int
    ) -> None:
        # The flushed generation is over; whatever was undelivered stays
        # undelivered.  Remember the bump so stale deliveries are caught.
        key = (src, dst)
        state = self._state.get(key)
        if state is not None and generation >= state[0]:
            self._state[key] = (generation + 1, 0, state[2])

    def describe(self) -> List[str]:
        return [
            f"fifo: {self.deliveries_checked} deliveries over "
            f"{len(self._state)} channels checked"
        ]


class RibCoherenceSanitizer(Observer):
    """Loc-RIB/FIB coherence and MRAI discipline for every speaker."""

    def __init__(self) -> None:
        self.decisions_checked = 0
        self.updates_checked = 0
        self.rankings_checked = 0

    def on_decision(self, speaker: Any, prefix: str) -> None:
        self.decisions_checked += 1
        # Ground truth is the naive full scan; it both validates the
        # Loc-RIB and proves the incremental ranking picks the same
        # winner the scan would.
        expected = speaker._select_best_naive(prefix)
        self.rankings_checked += 1
        cached = speaker._select_best(prefix)
        if cached != expected:
            raise SanitizerError(
                f"rib: node {speaker.node_id} ranked selection for {prefix!r} "
                f"is {cached!r} but the naive scan selects {expected!r}"
            )
        actual = speaker.loc_rib.get(prefix)
        if expected != actual:
            raise SanitizerError(
                f"rib: node {speaker.node_id} loc-rib for {prefix!r} holds "
                f"{actual!r} but the decision process selects {expected!r}"
            )
        fib_hop = speaker.fib.get(prefix)
        if expected is None:
            if fib_hop is not None:
                raise SanitizerError(
                    f"rib: node {speaker.node_id} forwards {prefix!r} via "
                    f"{fib_hop} with no route selected"
                )
        else:
            want = speaker.node_id if expected.is_local else expected.next_hop
            if fib_hop != want:
                raise SanitizerError(
                    f"rib: node {speaker.node_id} FIB hop {fib_hop} does not "
                    f"match best-route hop {want} for {prefix!r}"
                )

    def on_announcement(self, speaker: Any, peer: int, prefix: str, path: Any) -> None:
        self.updates_checked += 1
        if path and path[0] != speaker.node_id:
            raise SanitizerError(
                f"rib: node {speaker.node_id} announcing a path headed by "
                f"{path[0]} to peer {peer}"
            )
        if not speaker.mrai.can_send_now(peer, prefix):
            raise SanitizerError(
                f"rib: node {speaker.node_id} announced {prefix!r} to "
                f"{peer} while its MRAI timer was running"
            )

    def on_withdrawal(self, speaker: Any, peer: int, prefix: str) -> None:
        self.updates_checked += 1
        from ..bgp.variants import withdrawals_rate_limited

        if (
            withdrawals_rate_limited(speaker.config)
            and not speaker.mrai.can_send_now(peer, prefix)
            and not self._ghost_flush(speaker, peer, prefix)
        ):
            raise SanitizerError(
                f"rib: node {speaker.node_id} sent a WRATE-limited withdrawal "
                f"for {prefix!r} to {peer} while its MRAI timer was running"
            )

    @staticmethod
    def _ghost_flush(speaker: Any, peer: int, prefix: str) -> bool:
        """Whether the withdrawal is Ghost Flushing's, sent at once by design:
        ``peer`` was told a shorter path than the best route we would export
        to it unconverted."""
        from ..bgp.variants import converts_to_withdrawal, should_flush

        config = speaker.config
        best = speaker.loc_rib.get(prefix)
        if (
            not config.ghost_flushing
            or best is None
            or not speaker.policy.accept_export(peer, best)
        ):
            return False
        advertised = best.advertised_by(speaker.node_id)
        if config.ssld and converts_to_withdrawal(peer, advertised):
            return False
        return should_flush(speaker.adj_rib_out.get(peer, {}).get(prefix), advertised)

    def describe(self) -> List[str]:
        return [
            f"rib: {self.decisions_checked} decisions, "
            f"{self.updates_checked} updates, "
            f"{self.rankings_checked} ranked-vs-naive selections checked"
        ]


def build_suite() -> List[Observer]:
    """The three sanitizers, in the order they observe."""
    return [CausalitySanitizer(), FifoSanitizer(), RibCoherenceSanitizer()]
