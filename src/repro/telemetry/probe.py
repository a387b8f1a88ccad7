"""The telemetry probe: an observer that counts what a run does.

A :class:`TelemetryProbe` bundles a :class:`~repro.telemetry.registry.
MetricsRegistry` and an optional :class:`~repro.telemetry.timeline.
Timeline` behind the hooks of :class:`~repro.engine.observer.Observer`,
the one observation seam the engine, net and bgp layers call into.  The
runner installs it with ``scheduler.observe(...)``, after the sanitizers
when those are on too; a run without telemetry pays one attribute read
per hook site and nothing more.

The probe only *observes*.  It never draws randomness, schedules
events, or reads the wall clock, so installing it cannot change a run's
event order or its determinism digest.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..engine import Observer
from .registry import Counter, MetricsRegistry
from .timeline import Timeline

#: Fixed BGP message header size (RFC 4271 §4.1), bytes.
_HEADER_BYTES = 19
#: Modeled per-hop cost of the AS_PATH attribute (2-byte ASN).
_AS_HOP_BYTES = 2
#: Modeled NLRI / withdrawn-routes entry (1-byte length + /24 prefix + attrs
#: scaffolding); coarse, but consistent across variants so *relative*
#: overhead comparisons are meaningful.
_PREFIX_BYTES = 7
#: OPEN body: version, my-AS, hold time, BGP identifier, opt-param length.
_OPEN_BODY_BYTES = 10


def estimate_wire_size(message: Any) -> int:
    """A modeled wire size in bytes for a control-plane message.

    The simulator never serializes messages, so byte counters use this
    estimate: the RFC 4271 fixed header plus a per-kind body.  Unknown
    message types count as a bare header.
    """
    path = getattr(message, "path", None)
    if path is not None:  # Announcement
        return _HEADER_BYTES + _PREFIX_BYTES + _AS_HOP_BYTES * len(path)
    if hasattr(message, "prefix"):  # Withdrawal
        return _HEADER_BYTES + _PREFIX_BYTES
    if hasattr(message, "echo"):  # Open
        return _HEADER_BYTES + _OPEN_BODY_BYTES
    return _HEADER_BYTES  # Keepalive and anything else


class TelemetryProbe(Observer):
    """Metrics + timeline recording behind the simulator's hook points.

    The counters, gauges and histograms land in :attr:`registry`, a fresh
    :class:`MetricsRegistry` per probe.

    Parameters
    ----------
    timeline:
        When given, the probe also records simulation-time instants for
        the sparse, plot-worthy events (MRAI expiries, FIB changes);
        dense per-event instrumentation stays metrics-only so traces
        remain loadable.
    """

    def __init__(self, timeline: Optional[Timeline] = None) -> None:
        self.registry = MetricsRegistry()
        self.timeline = timeline
        reg = self.registry
        # Hot-path metrics are bound once here so hook calls do no dict
        # lookups beyond the per-kind caches.
        self._events_scheduled = reg.counter("engine.events_scheduled")
        self._events_executed = reg.counter("engine.events_executed")
        self._housekeeping_scheduled = reg.counter(
            "engine.housekeeping_scheduled"
        )
        self._heap_depth = reg.gauge("engine.heap_depth")
        self._channel_occupancy = reg.histogram("net.channel_occupancy")
        self._in_flight_dropped = reg.counter("net.in_flight_dropped")
        self._cpu_queue = reg.histogram("node.cpu_queue")
        self._decisions = reg.counter("bgp.decision_runs")
        self._mrai_expiries = reg.counter("bgp.mrai_expiries")
        self._fib_changes = reg.counter("dataplane.fib_changes")
        self._sent_by_kind: Dict[str, Counter] = {}
        self._bytes_by_kind: Dict[str, Counter] = {}
        self._delivered_by_kind: Dict[str, Counter] = {}
        self._suppressed_by_reason: Dict[str, Counter] = {}
        self._variant_extras: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Engine hooks (Scheduler)
    # ------------------------------------------------------------------

    def on_schedule(
        self, now: float, time: float, name: Optional[str], housekeeping: bool
    ) -> None:
        self._events_scheduled.inc()
        if housekeeping:
            self._housekeeping_scheduled.inc()

    def on_event_fired(
        self, now: float, time: float, name: Optional[str], heap_depth: int
    ) -> None:
        self._events_executed.inc()
        self._heap_depth.set(heap_depth)

    # ------------------------------------------------------------------
    # Net hooks (Channel / Node)
    # ------------------------------------------------------------------

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
        kind = type(message).__name__
        counter = self._sent_by_kind.get(kind)
        if counter is None:
            counter = self._sent_by_kind[kind] = self.registry.counter(
                f"net.messages_sent.{kind}"
            )
        counter.inc()
        by = self._bytes_by_kind.get(kind)
        if by is None:
            by = self._bytes_by_kind[kind] = self.registry.counter(
                f"net.bytes_sent.{kind}"
            )
        by.inc(estimate_wire_size(message))
        self._channel_occupancy.observe(in_flight)

    def on_channel_deliver(
        self,
        src: int,
        dst: int,
        message: Any,
        generation: int,
        sequence: int,
        now: float,
    ) -> None:
        kind = type(message).__name__
        counter = self._delivered_by_kind.get(kind)
        if counter is None:
            counter = self._delivered_by_kind[kind] = self.registry.counter(
                f"net.messages_delivered.{kind}"
            )
        counter.inc()

    def on_channel_flush(
        self, src: int, dst: int, generation: int, destroyed: int
    ) -> None:
        self._in_flight_dropped.inc(destroyed)

    def on_cpu_enqueue(self, node: int, queue_length: int) -> None:
        self._cpu_queue.observe(queue_length)

    # ------------------------------------------------------------------
    # BGP hooks (Speaker)
    # ------------------------------------------------------------------

    def on_decision(self, speaker: Any, prefix: str) -> None:
        self._decisions.inc()

    def on_mrai_expiry(self, time: float, node: int, peer: int, prefix: str) -> None:
        self._mrai_expiries.inc()
        if self.timeline is not None:
            self.timeline.instant(
                time, "mrai-expiry", "bgp", track=node, peer=peer, prefix=prefix
            )

    def on_update_suppressed(
        self, node: int, peer: int, prefix: str, reason: str
    ) -> None:
        counter = self._suppressed_by_reason.get(reason)
        if counter is None:
            counter = self._suppressed_by_reason[reason] = self.registry.counter(
                f"bgp.updates_suppressed.{reason}"
            )
        counter.inc()

    def on_variant_extra(self, node: int, kind: str) -> None:
        counter = self._variant_extras.get(kind)
        if counter is None:
            counter = self._variant_extras[kind] = self.registry.counter(
                f"bgp.variant.{kind}"
            )
        counter.inc()

    # ------------------------------------------------------------------
    # Dataplane hooks
    # ------------------------------------------------------------------

    def on_fib_change(
        self, time: float, node: int, prefix: str, next_hop: Optional[int]
    ) -> None:
        self._fib_changes.inc()
        if self.timeline is not None:
            self.timeline.instant(
                time,
                "fib-change",
                "dataplane",
                track=node,
                prefix=prefix,
                next_hop=next_hop,
            )

    # ------------------------------------------------------------------

    def snapshot(self):
        """Freeze the registry (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()
