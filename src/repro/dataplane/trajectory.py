"""Event-driven per-packet forwarding.

The exact (and expensive) oracle for the change-driven evaluator: every
packet is simulated hop by hop *during* the routing simulation, consulting
each node's live FIB at the moment the packet arrives there.  Unlike the
evaluator it makes no quasi-static assumption — a packet in flight
experiences FIB changes — so it serves as ground truth on drawn runs
(``tests/oracle/test_dataplane_oracle.py``) and in the ``repro figure
ablation_dataplane`` claims row.

Use it for small scenarios; for the paper-scale sweeps prefer
:class:`~repro.dataplane.epochs.EpochEvaluator`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..engine import EventPriority, Scheduler
from ..errors import AnalysisError
from ..topology import Topology
from .epochs import DataPlaneReport
from .packet import DEFAULT_TTL
from .traffic import CbrSource

FibLookup = Callable[[int], Optional[int]]
"""``lookup(node) -> next_hop`` against *live* state (None = no route,
node itself = local delivery)."""


class PacketForwarder:
    """Schedules real packet events inside the running simulation.

    Parameters
    ----------
    scheduler:
        The simulation's scheduler (shared with the routing protocol).
    topology:
        Supplies per-link propagation delays.
    fib_lookup:
        Live FIB accessor, typically closing over the network's speakers.
    ttl:
        Initial TTL per packet.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        topology: Topology,
        fib_lookup: FibLookup,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        self._scheduler = scheduler
        self._topology = topology
        self._fib_lookup = fib_lookup
        self._ttl = ttl
        self._report: Optional[DataPlaneReport] = None

    # ------------------------------------------------------------------

    def launch(self, sources: List[CbrSource], start: float, end: float) -> None:
        """Schedule every packet each source emits in ``[start, end)``.

        Must be called before the scheduler runs past ``start``.  The number
        of events is proportional to packets × hops; keep windows modest.
        """
        if end <= start:
            raise AnalysisError(f"traffic window [{start}, {end}) is empty")
        if self._report is not None:
            raise AnalysisError("launch() may only be called once per forwarder")
        self._report = DataPlaneReport(window=(start, end))
        for source in sources:
            for departure in source.times_in(start, end):
                self._report.packets_sent += 1
                self._scheduler.call_at(
                    departure,
                    lambda node=source.node: self._arrive(node, node, self._ttl),
                    priority=EventPriority.MONITOR,
                    name=f"packet:{source.node}",
                )

    @property
    def report(self) -> DataPlaneReport:
        """Packet fates accumulated so far (valid after the run)."""
        if self._report is None:
            raise AnalysisError("no traffic launched yet")
        return self._report

    # ------------------------------------------------------------------

    def _arrive(self, source: int, node: int, ttl_remaining: int) -> None:
        """The packet from ``source`` is at ``node`` with TTL left."""
        assert self._report is not None
        next_hop = self._fib_lookup(node)
        if next_hop == node:
            self._report.record_delivery(self._ttl - ttl_remaining)
            return
        if next_hop is None or not self._topology.has_edge(node, next_hop):
            self._report.dropped_no_route += 1
            return
        if ttl_remaining == 0:
            self._report.ttl_exhaustions += 1
            self._report.per_source_exhaustions[source] = (
                self._report.per_source_exhaustions.get(source, 0) + 1
            )
            self._report._note_exhaustion(self._scheduler.now)
            return
        delay = self._topology.link_delay(node, next_hop)
        self._scheduler.call_at(
            self._scheduler.now + delay,
            lambda: self._arrive(source, next_hop, ttl_remaining - 1),
            priority=EventPriority.MONITOR,
            name="packet-hop",
        )
