"""Post-mortem snapshots for simulations that fail to converge.

A run that exhausts its event budget or horizon used to die with a bare
exception, discarding everything the scheduler knew about *why*.  A churn
sweep cannot afford that: one pathological (scenario, seed) pair must not
take down hours of sibling trials, and the surviving report must say what
the dead trial was doing when it was killed.

:func:`capture_snapshot` freezes the interesting state —

* the clock, event counts, and the scheduler's live pending-event census
  grouped by name family (``mrai``, ``keepalive``, ``node-3``, …),
* per-node CPU state: queue depth, busy flag, liveness,
* the tail of the message trace (who was shouting at whom when the
  budget ran out),
* the state of any installed runtime sanitizers (how many invariants
  each had checked when the run died — see
  :mod:`repro.analysis.sanitizers`).

The result rides on :class:`~repro.errors.BudgetExceededError` so harnesses
(:mod:`repro.experiments.sweep`) can record it per trial and carry on.

Snapshots are deliberately *flat data* — frozen dataclasses of numbers,
strings, and tuples, never live simulator objects — so they pickle cleanly.
That is what lets a parallel sweep capture a post-mortem inside a worker
process and ship it back attached to the trial's failure record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine import Scheduler
from ..net import Network

DEFAULT_TRACE_TAIL = 20
"""How many trailing trace records a snapshot keeps by default."""


@dataclass(frozen=True)
class NodeState:
    """One node's processing state at capture time."""

    node_id: int
    alive: bool
    cpu_busy: bool
    cpu_queue: int
    messages_received: int


@dataclass(frozen=True)
class DiagnosticSnapshot:
    """What the simulation looked like at the moment it was declared dead."""

    time: float
    events_processed: int
    pending_events: int
    substantive_pending: int
    pending_by_name: Dict[str, int] = field(default_factory=dict)
    nodes: Tuple[NodeState, ...] = ()
    trace_tail: Tuple[str, ...] = ()
    sanitizer_state: Tuple[str, ...] = ()

    def busiest_nodes(self, top: int = 3) -> List[NodeState]:
        """Nodes with the deepest CPU queues (likely livelock participants)."""
        ranked = sorted(self.nodes, key=lambda n: (-n.cpu_queue, n.node_id))
        return ranked[:top]

    def render(self) -> str:
        """A readable multi-line report for logs and error messages."""
        lines = [
            f"t={self.time:.3f}s  events={self.events_processed}  "
            f"pending={self.pending_events} "
            f"(substantive={self.substantive_pending})",
        ]
        if self.pending_by_name:
            census = ", ".join(
                f"{name}×{count}"
                for name, count in sorted(self.pending_by_name.items())
            )
            lines.append(f"pending by family: {census}")
        hot = [n for n in self.busiest_nodes() if n.cpu_queue > 0 or n.cpu_busy]
        if hot:
            lines.append(
                "busiest CPUs: "
                + ", ".join(
                    f"node {n.node_id} (queue={n.cpu_queue}"
                    + (", in service" if n.cpu_busy else "")
                    + ("" if n.alive else ", CRASHED")
                    + ")"
                    for n in hot
                )
            )
        if self.sanitizer_state:
            lines.append("sanitizer state:")
            lines.extend(f"  {state}" for state in self.sanitizer_state)
        if self.trace_tail:
            lines.append(f"last {len(self.trace_tail)} messages:")
            lines.extend(f"  {record}" for record in self.trace_tail)
        return "\n".join(lines)


def capture_snapshot(
    scheduler: Scheduler,
    network: Optional[Network] = None,
    trace_tail: int = DEFAULT_TRACE_TAIL,
) -> DiagnosticSnapshot:
    """Freeze the simulation's state for a post-mortem.

    Safe to call from any failure path: the network is optional and nothing
    here mutates simulation state.
    """
    nodes: Tuple[NodeState, ...] = ()
    tail: Tuple[str, ...] = ()
    if network is not None:
        nodes = tuple(
            NodeState(
                node_id=node_id,
                alive=node.alive,
                cpu_busy=node.processor.busy,
                cpu_queue=node.processor.queue_length,
                messages_received=node.messages_received,
            )
            for node_id, node in sorted(network.nodes.items())
        )
        records = network.trace.records()[-trace_tail:] if trace_tail > 0 else []
        tail = tuple(
            f"t={r.time:.3f} {r.src}->{r.dst} {r.message!r}" for r in records
        )
    sanitizers: Tuple[str, ...] = ()
    describe = getattr(getattr(scheduler, "invariants", None), "describe", None)
    if describe is not None:
        sanitizers = tuple(describe())
    return DiagnosticSnapshot(
        time=scheduler.now,
        events_processed=scheduler.events_processed,
        pending_events=scheduler.pending,
        substantive_pending=scheduler.substantive_pending,
        pending_by_name=scheduler.pending_by_name(),
        nodes=nodes,
        trace_tail=tail,
        sanitizer_state=sanitizers,
    )
