"""Every public name under ``src/repro`` has a caller, or says why it stays.

A *public def* is a top-level function or class whose name has no leading
underscore, or such a method of a public class.  Its *caller* is its name
as a code token (an identifier, or an attribute after a ``.``) anywhere
in ``src/``, ``examples/`` or ``benchmarks/`` outside the def's own body.
Methods count only after a ``.``.  Imports and ``__all__`` strings are not
code tokens, so a package ``__init__`` that re-exports a name does not
call it.

A public def without a caller must appear in :data:`KEPT` with the test
that uses it as an oracle or a probe, or the ROADMAP item it waits for.
An entry whose def is gone, or has gained a caller, fails too, so the
table cannot rot.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

KEPT: Dict[str, str] = {
    # Oracles: independent reference computations tests compare against.
    "repro.core.loop_theory.worst_case_detection_delay": (
        "oracle: tests/core/test_loop_theory.py::TestSchedule checks "
        "resolution_schedule's last bound against this closed form"
    ),
    "repro.dataplane.fib.FibChangeLog.epochs": (
        "oracle: the naive evaluators of "
        "tests/property/test_evaluator_properties.py replay per-epoch graphs"
    ),
    "repro.dataplane.fib.FibChangeLog.multi_epochs": (
        "oracle: naive_traffic_report in "
        "tests/property/test_evaluator_properties.py"
    ),
    "repro.dataplane.fib.FibChangeLog.snapshot_at": (
        "oracle: tests/property/test_fiblog_properties.py checks epochs "
        "against point-in-time snapshots"
    ),
    "repro.dataplane.packet.walk_lpm": (
        "oracle: naive_traffic_report in "
        "tests/property/test_evaluator_properties.py walks packets with it"
    ),
    "repro.net.trace.MessageTrace.since": (
        "oracle: naive_loop_timeline in "
        "tests/property/test_evaluator_properties.py reads the trace with it"
    ),
    "repro.prefixes.longest_match": (
        "oracle: tests/property/test_lpm_properties.py checks RadixTrie "
        "lookups against this linear scan"
    ),
    "repro.topology.io.load_edge_list": (
        "oracle: tests/test_cli.py::TestTopologyCommand parses "
        "`repro topology` output with it"
    ),
    # Probes: accessors through which tests observe another part's state.
    "repro.analysis.stability.find_dispute_wheel": (
        "probe: tests/analysis/test_stability.py::TestDisputeWheelDetection "
        "runs the wheel search on an extracted PolicyGraph, without "
        "certify's structural shortcuts"
    ),
    "repro.bgp.mrai.MraiManager.active_timers": (
        "probe: tests/bgp/test_update_batching.py::TestPerPeerMrai and "
        "tests/engine/test_heap_compaction.py count running MRAI timers"
    ),
    "repro.bgp.path.intern_table_size": (
        "probe: tests/property/test_interning_properties.py checks that "
        "unpickling re-interns without growing the table"
    ),
    "repro.bgp.rib.AdjRibIn.group_count": (
        "probe: tests/bgp/test_rib.py::TestAdjRibInSharing observes "
        "copy-on-write group sharing"
    ),
    "repro.bgp.session.SessionManager.established_count": (
        "probe: tests/bgp/test_session.py::TestSessionManager"
    ),
    "repro.core.loop_detector.is_loop_free": (
        "probe: tests/bgp/test_speaker.py, tests/ls/test_linkstate.py and "
        "the routing properties check converged forwarding with it"
    ),
    "repro.dataplane.fib.FibChangeLog.change_times": (
        "probe: tests/oracle/test_dataplane_oracle.py finds a prefix's "
        "change instants with it"
    ),
    "repro.engine.event.Event.fired": (
        "probe: tests/net/test_channel.py checks which deliveries are "
        "still pending"
    ),
    "repro.engine.process.SerialProcessor.jobs_completed": (
        "probe: tests/engine/test_process.py::TestIntrospection"
    ),
    "repro.engine.process.SerialProcessor.jobs_dropped": (
        "probe: tests/engine/test_housekeeping.py and "
        "tests/bgp/test_reconnect.py check that a crash drops queued work"
    ),
    "repro.engine.scheduler.Scheduler.last_event_time": (
        "probe: tests/engine/test_housekeeping.py::TestQuiescence compares "
        "it with last_substantive_event_time"
    ),
    "repro.engine.scheduler.Scheduler.peek_time": (
        "probe: tests/engine/test_heap_compaction.py and "
        "tests/engine/test_scheduler.py::TestCancellation"
    ),
    "repro.engine.timers.Timer.expires_at": (
        "probe: tests/engine/test_timers.py::TestLifecycle"
    ),
    "repro.engine.timers.Timer.remaining": (
        "probe: tests/engine/test_timers.py::TestLifecycle"
    ),
    "repro.experiments.journal.decode_record": (
        "probe: tests/experiments/test_journal.py::TestRecordCodec parses "
        "raw journal lines"
    ),
    "repro.experiments.journal.encode_record": (
        "probe: the journal, durable-log and recovery tests write raw, "
        "torn and corrupt journal lines with it"
    ),
    "repro.experiments.scenarios.with_explicit_originations": (
        "probe: tests/experiments/test_multiprefix.py::TestGoldenEquivalence "
        "pins the explicit N = 1 origination form against the legacy digest"
    ),
    "repro.net.channel.Channel.in_flight": (
        "probe: tests/net/test_channel.py"
    ),
    "repro.net.channel.Channel.messages_sent": (
        "probe: tests/net/test_channel.py::TestDelivery::test_counters"
    ),
    "repro.net.link.Link.messages_carried": (
        "probe: tests/net/test_link.py::TestFailure"
    ),
    "repro.net.network.Network.links": (
        "probe: tests/net/test_network.py::TestConstruction"
    ),
    "repro.net.network.Network.node_is_up": (
        "probe: tests/net/test_fault_injection.py::TestNodeCrash"
    ),
    "repro.net.trace.MessageTrace.count_kind": (
        "probe: tests/net/test_trace.py::TestKindTallies checks the O(1) "
        "tallies against a rescan"
    ),
    "repro.telemetry.profiler.time_callable": (
        "probe: tests/telemetry/test_overhead.py times the disabled "
        "telemetry guards with it"
    ),
    # Waiting for a ROADMAP item.
    "repro.bgp.route.route_intern_table_size": (
        "ROADMAP item 7: the daemon's `stats` op reports it"
    ),
    "repro.core.loop_theory.resolution_schedule": (
        "ROADMAP items 3 (e) and 4: the bound witness is checked against it "
        "step for step"
    ),
    # Reached only by their own tests; ROADMAP item 8's remainder deletes
    # them together with those tests.
    "repro.bgp.path.AsPath.concat": "ROADMAP item 8 remainder",
    "repro.bgp.path.AsPath.contains_any": "ROADMAP item 8 remainder",
    "repro.bgp.path.AsPath.next_after": "ROADMAP item 8 remainder",
    "repro.core.churn.UpdateChurn.activity_histogram": "ROADMAP item 8 remainder",
    "repro.engine.process.SerialProcessor.backlog_time": "ROADMAP item 8 remainder",
    "repro.engine.rng.RandomStreams.spawn": "ROADMAP item 8 remainder",
    "repro.experiments.report.FigureData.check_failures": "ROADMAP item 8 remainder",
    "repro.net.link.Link.other_end": "ROADMAP item 8 remainder",
    "repro.net.trace.MessageTrace.first_time": "ROADMAP item 8 remainder",
    "repro.prefixes.trie.RadixTrie.covered": "ROADMAP item 8 remainder",
}

# name -> [(path, line)] for identifiers; attr -> [(path, line)] after a dot.
Uses = Dict[str, List[Tuple[Path, int]]]


def _code_tokens() -> Tuple[Uses, Uses]:
    names: Uses = defaultdict(list)
    attrs: Uses = defaultdict(list)
    for base in CALLER_DIRS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    attrs[node.attr].append((path, node.lineno))
    return names, attrs


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_defs() -> Iterator[Tuple[str, ast.AST, Path, bool]]:
    """``(qualified name, node, path, is_method)`` for every public def."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node, path, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        qualified = f"{module}.{node.name}.{member.name}"
                        yield qualified, member, path, True


def _uncalled() -> Tuple[Set[str], Set[str]]:
    """Public defs without a caller, and every public def's name."""
    names, attrs = _code_tokens()
    uncalled: Set[str] = set()
    defined: Set[str] = set()
    for qualified, node, path, is_method in _public_defs():
        defined.add(qualified)
        uses = list(attrs.get(node.name, ()))
        if not is_method:
            uses += names.get(node.name, ())
        outside = [
            use for use in uses
            if use[0] != path or not node.lineno <= use[1] <= node.end_lineno
        ]
        if not outside:
            uncalled.add(qualified)
    return uncalled, defined


def test_every_uncalled_public_def_is_kept_for_a_reason():
    uncalled, _ = _uncalled()
    missing = sorted(uncalled - KEPT.keys())
    assert not missing, (
        "public defs with no caller in src/, examples/ or benchmarks/; "
        "delete them with the tests that only cover them, or add them to "
        f"KEPT with the test or ROADMAP item they are kept for: {missing}"
    )


def test_kept_entries_are_live():
    uncalled, defined = _uncalled()
    gone = sorted(KEPT.keys() - defined)
    called = sorted((KEPT.keys() & defined) - uncalled)
    assert not gone, f"KEPT names defs that no longer exist: {gone}"
    assert not called, f"KEPT names defs that now have a caller: {called}"


def test_every_kept_entry_has_a_reason():
    assert all(reason.strip() for reason in KEPT.values())
