"""The per-layer ledger: where the wrappers go and what is derived from them.

Layer names are the package names under ``src/repro``.  Every metric is
emitted on every workload; one that a workload does not exercise reads 0.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from repro.bgp import BgpSpeaker
from repro.bgp.decision import DecisionProcess
from repro.bgp.mrai import MraiManager
from repro.bgp.rib import AdjRibIn
from repro.dataplane import EpochEvaluator, FibChangeLog, TrafficMatrixEvaluator
from repro.dataplane.fib import MultiPrefixFib
from repro.engine import Scheduler
from repro.engine.timers import Timer
from repro.experiments.journal import SweepJournal
from repro.net.channel import Channel
from repro.net.node import Node
from repro.net.trace import MessageTrace
from repro.prefixes.trie import RadixTrie

from tracing import Tracer

BOUNDARIES: List[Tuple[type, str, str]] = [
    (Scheduler, "run", "engine.run"),
    (Scheduler, "call_at", "engine.call_at"),
    (Channel, "send", "net.channel_send"),
    (Node, "deliver", "net.node_deliver"),
    (MessageTrace, "record", "net.trace_record"),
    (BgpSpeaker, "handle_message", "bgp.handle_message"),
    (AdjRibIn, "put", "bgp.rib_in"),
    (AdjRibIn, "remove", "bgp.rib_in"),
    (DecisionProcess, "select", "bgp.decision_select"),
    (MraiManager, "can_send_now", "bgp.mrai"),
    (MraiManager, "mark_sent", "bgp.mrai"),
    (FibChangeLog, "record", "dataplane.fib_record"),
    (MultiPrefixFib, "set_entry", "dataplane.fib_set_entry"),
    (MultiPrefixFib, "resolve", "dataplane.lpm_resolve"),
    (EpochEvaluator, "evaluate", "dataplane.epoch_evaluate"),
    (TrafficMatrixEvaluator, "evaluate", "dataplane.traffic_evaluate"),
    (RadixTrie, "lookup", "prefixes.trie_lookup"),
    (RadixTrie, "insert", "prefixes.trie_write"),
    (RadixTrie, "remove", "prefixes.trie_write"),
    (RadixTrie, "covered", "prefixes.trie_covered"),
]
"""``(class, method, span name)`` for the staged replica of a simulator job."""

JOURNAL_BOUNDARIES: List[Tuple[object, str, str]] = [
    # The module, not ``repro.experiments.sweep``: the package rebinds that
    # name to the function, and checkpointed_sweep imports it at call time.
    (sys.modules["repro.experiments.sweep"], "sweep", "experiments.sweep"),
    (SweepJournal, "append", "experiments.journal_append"),
    (SweepJournal, "checkpoint", "experiments.journal_checkpoint"),
]
"""The boundaries of the foreground journaled sweep of ``svc_sweep``."""

PER_LAYER: List[Tuple[str, str, str]] = [
    ("engine.events_fired", "count", "higher"),
    ("engine.events_scheduled", "count", "lower"),
    ("engine.fired_per_scheduled", "ratio", "higher"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.call_at_self_s", "s", "lower"),
    ("net.messages_sent", "count", "lower"),
    ("net.channel_send_self_s", "s", "lower"),
    ("net.node_deliver_self_s", "s", "lower"),
    ("net.trace_record_self_s", "s", "lower"),
    ("bgp.messages_handled", "count", "lower"),
    ("bgp.handle_message_self_s", "s", "lower"),
    ("bgp.route_updates", "count", "lower"),
    ("bgp.rib_in_self_s", "s", "lower"),
    ("bgp.decision_select_calls", "count", "lower"),
    ("bgp.decision_select_self_s", "s", "lower"),
    ("bgp.fib_changes_per_decision", "ratio", "higher"),
    ("bgp.mrai_checks", "count", "lower"),
    ("bgp.mrai_self_s", "s", "lower"),
    ("bgp.origin_event_self_s", "s", "lower"),
    ("bgp.timer_expiries", "count", "lower"),
    ("bgp.timer_expiry_self_s", "s", "lower"),
    ("dataplane.fib_changes", "count", "lower"),
    ("dataplane.fib_record_self_s", "s", "lower"),
    ("dataplane.fib_set_entry_calls", "count", "lower"),
    ("dataplane.fib_set_entry_self_s", "s", "lower"),
    ("dataplane.epoch_evaluate_s", "s", "lower"),
    ("dataplane.traffic_evaluate_self_s", "s", "lower"),
    ("dataplane.traffic_seed_s", "s", "lower"),
    ("dataplane.packets_per_s", "1/s", "higher"),
    ("dataplane.lpm_resolve_calls", "count", "lower"),
    ("dataplane.lpm_resolve_self_s", "s", "lower"),
    ("dataplane.lpm_resolves_per_fib_change", "ratio", "lower"),
    ("prefixes.trie_lookup_calls", "count", "lower"),
    ("prefixes.trie_lookup_self_s", "s", "lower"),
    ("prefixes.trie_write_calls", "count", "lower"),
    ("prefixes.trie_write_self_s", "s", "lower"),
    ("prefixes.trie_covered_calls", "count", "lower"),
    ("prefixes.trie_covered_self_s", "s", "lower"),
    ("core.measure_convergence_s", "s", "lower"),
    ("core.loop_timeline_s", "s", "lower"),
    ("core.loops_detected", "count", "lower"),
    ("core.loops_over_bound", "count", "lower"),
    ("topology.build_s", "s", "lower"),
    ("experiments.build_network_s", "s", "lower"),
    ("experiments.job_drift_share", "ratio", "lower"),
    ("experiments.sweep_plain_s", "s", "lower"),
    ("experiments.sweep_journaled_s", "s", "lower"),
    ("experiments.journal_overhead_s", "s", "lower"),
    ("experiments.journal_appends", "count", "lower"),
    ("experiments.journal_append_self_s", "s", "lower"),
    ("experiments.parallel_efficiency", "ratio", "higher"),
    ("analysis.fingerprint_s", "s", "lower"),
    ("service.daemon_start_s", "s", "lower"),
    ("service.ping_rtt_s", "s", "lower"),
    ("service.submit_rtt_s", "s", "lower"),
    ("service.first_event_s", "s", "lower"),
    ("service.events_streamed", "count", "lower"),
    ("service.roundtrip_overhead_s", "s", "lower"),
    ("telemetry.on_overhead_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
]
"""``(name, unit, better)`` of every per-layer metric, as in BENCHMARK.json."""


def install(tracer: Tracer, boundaries) -> None:
    for owner, attribute, name in boundaries:
        tracer.install(owner, attribute, name)


def install_timer_callbacks(tracer: Tracer) -> None:
    """Span every callback handed to the engine's ``Timer``.

    MRAI expiry, hold, keepalive, ConnectRetry and damping-reuse timers are
    all armed by ``bgp``; the work their expiry starts (flushing held
    announcements, above all) would otherwise count as the engine's own.
    """
    construct = Timer.__dict__["__init__"]

    def init(self, scheduler, callback, *args, **kwargs):
        construct(
            self, scheduler, tracer.wrapped(callback, "bgp.timer_expiry"), *args, **kwargs
        )

    tracer.replace(Timer, "__init__", init)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(ledger: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics that come straight from the span ledger of the
    traced jobs of a simulator workload."""

    def row(name: str) -> Dict[str, float]:
        return ledger.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def self_s(name: str) -> float:
        return row(name)["self_s"]

    def calls(name: str) -> int:
        return int(row(name)["calls"])

    fib_changes = calls("dataplane.fib_record")
    traced_s = row("experiments.job")["total_s"]
    unattributed = self_s("experiments.job")
    return {
        "engine.events_scheduled": calls("engine.call_at"),
        "engine.run_self_s": self_s("engine.run"),
        "engine.call_at_self_s": self_s("engine.call_at"),
        "net.messages_sent": calls("net.channel_send"),
        "net.channel_send_self_s": self_s("net.channel_send"),
        "net.node_deliver_self_s": self_s("net.node_deliver"),
        "net.trace_record_self_s": self_s("net.trace_record"),
        "bgp.messages_handled": calls("bgp.handle_message"),
        "bgp.handle_message_self_s": self_s("bgp.handle_message"),
        "bgp.rib_in_self_s": self_s("bgp.rib_in"),
        "bgp.decision_select_calls": calls("bgp.decision_select"),
        "bgp.decision_select_self_s": self_s("bgp.decision_select"),
        "bgp.fib_changes_per_decision": _ratio(
            fib_changes, calls("bgp.decision_select")
        ),
        "bgp.mrai_checks": calls("bgp.mrai"),
        "bgp.mrai_self_s": self_s("bgp.mrai"),
        "bgp.origin_event_self_s": self_s("bgp.origin_event"),
        "bgp.timer_expiries": calls("bgp.timer_expiry"),
        "bgp.timer_expiry_self_s": self_s("bgp.timer_expiry"),
        "dataplane.fib_changes": fib_changes,
        "dataplane.fib_record_self_s": self_s("dataplane.fib_record"),
        "dataplane.fib_set_entry_calls": calls("dataplane.fib_set_entry"),
        "dataplane.fib_set_entry_self_s": self_s("dataplane.fib_set_entry"),
        "dataplane.epoch_evaluate_s": row("dataplane.epoch_evaluate")["total_s"],
        "dataplane.traffic_evaluate_self_s": self_s("dataplane.traffic_evaluate"),
        "dataplane.traffic_seed_s": row("dataplane.traffic_seed")["total_s"],
        "dataplane.lpm_resolve_calls": calls("dataplane.lpm_resolve"),
        "dataplane.lpm_resolve_self_s": self_s("dataplane.lpm_resolve"),
        "dataplane.lpm_resolves_per_fib_change": _ratio(
            calls("dataplane.lpm_resolve"), fib_changes
        ),
        "prefixes.trie_lookup_calls": calls("prefixes.trie_lookup"),
        "prefixes.trie_lookup_self_s": self_s("prefixes.trie_lookup"),
        "prefixes.trie_write_calls": calls("prefixes.trie_write"),
        "prefixes.trie_write_self_s": self_s("prefixes.trie_write"),
        "prefixes.trie_covered_calls": calls("prefixes.trie_covered"),
        "prefixes.trie_covered_self_s": self_s("prefixes.trie_covered"),
        "core.measure_convergence_s": row("core.measure_convergence")["total_s"],
        "core.loop_timeline_s": row("core.loop_timeline")["total_s"],
        "topology.build_s": row("topology.build")["total_s"],
        "experiments.build_network_s": row("experiments.build_network")["total_s"],
        "trace.attributed_share": _ratio(traced_s - unattributed, traced_s),
    }


def complete(metrics: Dict[str, float]) -> Dict[str, Dict]:
    """``metrics`` as ``name -> {value, unit}`` over every per-layer name;
    a name outside :data:`PER_LAYER` is a programming error."""
    known = {name for name, _unit, _better in PER_LAYER}
    unknown = sorted(set(metrics) - known)
    if unknown:
        raise KeyError(f"not per-layer metrics: {unknown}")
    return {
        name: {"value": metrics.get(name, 0), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
