"""Every public name under ``src/repro`` has a caller, or says why it stays.

A *public def* is a top-level function or class whose name has no leading
underscore, or such a method of a public class.  Its *caller* is its name
as a code token (an identifier, or an attribute after a ``.``) anywhere
in ``src/``, ``examples/`` or ``benchmarks/`` outside the def's own body.
Methods count only after a ``.``.  A method that shares its name with an
attribute or field assigned anywhere in ``src/`` is *ambiguous*: a
``.name`` read may be that attribute, so only a ``.name(`` call counts
for it.  An ambiguous property is read, never called, so a ``.name`` read
counts for it only when the receiver fits its class: every attribute the
same function reads or writes on that receiver expression is a member of
the property's class (a method, a class-body field or a ``self.``
attribute), and the read is not a store.  Imports and ``__all__`` strings are not
code tokens, so a package ``__init__`` that re-exports a name does not
call it.  The benchmark's staged replica reaches methods by reflection:
each ``(Class, "method", "span")`` tuple of ``benchmarks/e2e/layers.py``'s
``BOUNDARIES`` calls ``Class.method``, and must name a method that exists.

A *public constant* is a name bound by a module-level assignment outside a
package ``__init__``, with no leading underscore.  Its reader is its name
as a code token outside its own statement, by the same rules as a
function's caller.

A public def without a caller, or a public constant without a reader,
must appear in :data:`KEPT` with the test that uses it as an oracle or a
probe, or the ROADMAP item it waits for.  An entry whose name is gone, or
has gained a caller, fails too, so the table cannot rot.

The same holds one level down, for settings.  A *setting* is a defaulted
parameter of a module-level function, or of a method or ``__init__`` of a
module-level class, under ``src/repro``.  A call in ``src/``,
``examples/`` or ``benchmarks/`` *passes* it when it sets it by keyword
or by position, or when ``partial(f, ...)`` or ``to_thread(f, ...)``
binds it; a call that spreads ``*args`` passes every position from
there on.  One that spreads ``**name`` passes the keys of
``name`` when the innermost function around the call that binds ``name``
binds it once, to ``dict(k=...)`` with keywords only or to a dict literal
with constant string keys, and everything otherwise.  Calls resolve by
name, as for defs: ``f(...)`` or ``x.f(...)`` for a function,
``x.f(...)`` for a method, ``C(...)`` or a subclass's
``super().__init__(...)`` for ``C.__init__``; a name defined more than
once is skipped, and so are the drivers of the claims table, whose
parameters ``--quick`` sets.  A defaulted field of a frozen dataclass is
a setting too: a ``C(...)`` call (or one of a subclass, or ``cls(...)``
in its class body) passes it by keyword or position, and
``replace(x, ...)`` by keyword.  A setting no call passes takes one value
everywhere, so it must be a constant, or appear in :data:`KEPT_PARAMS`
with the test that needs another value to reach a behaviour or to stay
fast, or the ROADMAP item it waits for.

Every name an import binds in a module under ``src/``, ``tests/`` or
``examples/`` is read in that module: as an identifier, or inside a
string annotation.  A package ``__init__`` (whose imports are its
re-exports) and ``from __future__`` are exempt.  An import kept for its
side effect must appear in :data:`SIDE_EFFECT_IMPORTS` with the reason.
"""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")
LAYERS = ROOT / "benchmarks" / "e2e" / "layers.py"
IMPORT_DIRS = (ROOT / "src", ROOT / "tests", ROOT / "examples")

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
    "repro.bgp.rib.AdjRibIn.group_count": (
        "probe: tests/bgp/test_rib.py::TestAdjRibInSharing observes "
        "copy-on-write group sharing"
    ),
    "repro.bgp.speaker.BgpSpeaker.origins": (
        "probe: tests/experiments/test_multiprefix.py::TestTaggRun::"
        "test_aggregation_round_trips_origins reads what each origin "
        "originates after an aggregation cycle"
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
    "repro.net.channel.Channel.in_flight": (
        "probe: tests/net/test_channel.py"
    ),
    "repro.net.network.Network.links": (
        "probe: tests/net/test_network.py::TestConstruction"
    ),
    "repro.net.network.Network.node_is_up": (
        "probe: tests/net/test_fault_injection.py::TestNodeCrash"
    ),
    "repro.telemetry.profiler.time_callable": (
        "probe: tests/telemetry/test_overhead.py times the disabled "
        "telemetry guards with it"
    ),
    # Waiting for a ROADMAP item.
    "repro.core.loop_theory.resolution_schedule": (
        "ROADMAP items 3 (e) and 4: the bound witness is checked against it "
        "step for step"
    ),
}

KEPT_PARAMS: Dict[str, str] = {
    # Tests need another value to reach a behaviour.
    "repro.analysis.stability.certify(limits)": (
        "tests/analysis/test_stability.py::TestUnknownDegradation reaches "
        "the truncated-lattice and search-budget UNKNOWN verdicts"
    ),
    "repro.analysis.stability.certify(structural)": (
        "tests/analysis/test_stability.py forces the exhaustive lattice "
        "route on scenarios the structural short-cuts would certify"
    ),
    "repro.analysis.stability.SearchLimits(max_paths_per_node)": (
        "tests/analysis/test_stability.py::TestUnknownDegradation truncates "
        "the lattice at 2-3 paths per node"
    ),
    "repro.analysis.stability.SearchLimits(max_search_steps)": (
        "tests/analysis/test_stability.py::TestUnknownDegradation exhausts "
        "the wheel search in 5 steps"
    ),
    "repro.bgp.damping.DampingConfig(attribute_change_penalty)": (
        "tests/bgp/test_damping.py and test_sanitizers.py::"
        "TestGroupDecisionMutation spell out the penalties their expected "
        "values are computed from"
    ),
    "repro.bgp.damping.DampingConfig(reuse_threshold)": (
        "tests/bgp/test_damping.py::TestConfig::test_validation rejects a "
        "zero and an inverted reuse threshold"
    ),
    "repro.bgp.damping.DampingConfig(suppress_threshold)": (
        "tests/bgp/test_damping.py::TestConfig::test_validation rejects a "
        "suppress threshold below the reuse threshold"
    ),
    "repro.bgp.damping.DampingConfig(withdrawal_penalty)": (
        "tests/bgp/test_damping.py::TestConfig::test_validation rejects a "
        "negative penalty"
    ),
    "repro.experiments.config.RunSettings(event_budget)": (
        "tests/integration/test_churn_lifecycle.py::TestSweepFaultIsolation "
        "and the journal, sweep and resilience tests exhaust a 30-200 event "
        "budget to reach a failed trial"
    ),
    "repro.net.failures.NodeCrash(silent)": (
        "tests/net/test_fault_injection.py::TestInjectedSchedule schedules "
        "a silent crash (node_crash_silent)"
    ),
    "repro.topology.internet.InternetShape(core_fraction)": (
        "tests/topology/test_internet.py::TestGenerator::test_shape_validation "
        "rejects an empty core and one that leaves no stubs"
    ),
    "repro.topology.internet.InternetShape(stub_multihome_probability)": (
        "tests/topology/test_internet.py::TestGenerator::test_shape_validation "
        "rejects a probability above 1"
    ),
    "repro.topology.internet.InternetShape(transit_fraction)": (
        "tests/topology/test_internet.py::TestGenerator::test_shape_validation "
        "rejects fractions that leave no stubs"
    ),
    "repro.core.exploration.RouteChangeLog.changes(node)": (
        "tests/core/test_exploration.py reads one node's route changes"
    ),
    "repro.dataplane.packet.walk_lpm(ttl)": (
        "oracle: tests/dataplane/test_traffic_eval.py walks with TTL 1 to "
        "reach exhaustion, and the evaluator properties with the run's TTL"
    ),
    "repro.experiments.oscillation.observe_oscillation(config)": (
        "tests/experiments/test_unsafe.py reaches DISAGREE's convergence "
        "under MRAI-staggered timing"
    ),
    "repro.util.plot.ascii_chart(height)": (
        "tests/util/test_plot.py checks exact layouts on small canvases"
    ),
    "repro.util.plot.ascii_chart(width)": (
        "tests/util/test_plot.py checks exact layouts on small canvases and "
        "that a too-narrow one is rejected"
    ),
    # Tests need another value to stay fast.
    "repro.core.observations.check_ratio_constant(max_cv)": (
        "tests/integration/test_paper_behaviors.py checks Observation 2 at "
        "toy sizes, where the ratio varies more than at claim sizes"
    ),
    "repro.experiments.oscillation.observe_oscillation(horizon)": (
        "tests/experiments/test_unsafe.py observes 10-100 s, not 120 s"
    ),
    "repro.service.queue.DurableJobQueue.compact(keep_terminal)": (
        "tests/service/test_queue.py reaches retention with a few jobs, "
        "not 50"
    ),
    "repro.telemetry.profiler.time_callable(repeats)": (
        "tests/telemetry/test_overhead.py and test_profiler.py time three "
        "repeats"
    ),
    "repro.experiments.config.RunSettings(failure_guard)": (
        "tests across experiments/, bgp/, core/ and integration/ fail the "
        "network 0.5 s after quiescence instead of 1 s"
    ),
    # Waiting for a ROADMAP item.
    "repro.topology.internet.internet_like(shape)": (
        "ROADMAP item 3 (a) sweeps the InternetShape fields"
    ),
}

#: ``"<path from the repo root>:<bound name>"`` -> why the import stays
#: although the module never reads the name.
SIDE_EFFECT_IMPORTS: Dict[str, str] = {}

# name -> [(path, line)] for identifiers; attr -> [(path, line)] after a dot.
Uses = Dict[str, List[Tuple[Path, int]]]


def _code_tokens() -> Tuple[Uses, Uses, Uses]:
    """Identifier uses, attribute uses, and the attribute uses that are
    the callee of a call (``x.name(...)``)."""
    names: Uses = defaultdict(list)
    attrs: Uses = defaultdict(list)
    calls: Uses = defaultdict(list)
    for base in CALLER_DIRS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    attrs[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    calls[node.func.attr].append((path, node.lineno))
    return names, attrs, calls


# name -> [(path, line, attributes the enclosing function uses on the same
# receiver expression)] for every ``.name`` that is not a store.
Reads = Dict[str, List[Tuple[Path, int, FrozenSet[str]]]]


def _receiver_reads() -> Reads:
    """Each attribute read with the attributes used on its receiver."""
    reads: Reads = defaultdict(list)
    for base in CALLER_DIRS:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            # ast.walk is breadth-first: an outer function claims the
            # attributes of the functions nested in it.
            scopes = [
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            ]
            claimed: Set[int] = set()
            for scope in scopes + [tree]:
                used: Dict[str, Set[str]] = defaultdict(set)
                found = []
                for node in ast.walk(scope):
                    if isinstance(node, ast.Attribute) and id(node) not in claimed:
                        claimed.add(id(node))
                        receiver = ast.dump(node.value)
                        used[receiver].add(node.attr)
                        found.append((node, receiver))
                for node, receiver in found:
                    if not isinstance(node.ctx, ast.Store):
                        reads[node.attr].append(
                            (path, node.lineno, frozenset(used[receiver]))
                        )
    return reads


def _class_members() -> Dict[str, Set[str]]:
    """Class name -> its methods, class-body fields and ``self.`` attributes
    (a name defined by two classes gets both sets)."""
    members: Dict[str, Set[str]] = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members[node.name].add(member.name)
                members[node.name].update(_assigned_names(member))
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    members[node.name].add(sub.attr)
    return members


def _assigned_attributes() -> Set[str]:
    """Names assigned as an attribute (``x.name = ...``) or declared as a
    class-body field anywhere in ``src/``."""
    assigned: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    assigned.update(_assigned_names(member))
    return assigned


def _is_property(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
        or (isinstance(d, ast.Attribute) and d.attr in ("setter", "cached_property"))
        for d in getattr(node, "decorator_list", ())
    )


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _assigned_names(node: ast.stmt) -> Iterator[str]:
    """Names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id


def _public_defs() -> Iterator[Tuple[str, str, ast.AST, Path, bool]]:
    """``(qualified name, name, node, path, is_method)`` for every public
    def and public constant; ``node`` spans the defining statement."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if path.name != "__init__.py":
                for name in _assigned_names(node):
                    if not name.startswith("_"):
                        yield f"{module}.{name}", name, node, path, False
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node, path, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        qualified = f"{module}.{node.name}.{member.name}"
                        yield qualified, member.name, member, path, True


def _boundaries() -> List[Tuple[str, str, str]]:
    """``(imported module, class, method)`` for each ``BOUNDARIES`` tuple."""
    tree = ast.parse(LAYERS.read_text(), str(LAYERS))
    imported = {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for node in tree.body:
        if "BOUNDARIES" in _assigned_names(node):
            return [
                (imported[owner.id], owner.id, method.value)
                for owner, method, _span in (t.elts for t in node.value.elts)
            ]
    raise AssertionError(f"no BOUNDARIES in {LAYERS}")


def _reflected(defined: Set[str]) -> Tuple[Set[str], List[str]]:
    """Public defs a ``BOUNDARIES`` tuple calls, and tuples naming no def."""
    called: Set[str] = set()
    unknown: List[str] = []
    for module, owner, method in _boundaries():
        # ``from repro.bgp import BgpSpeaker`` may name a package re-export.
        matches = {
            qualified
            for qualified in defined
            if qualified.endswith(f".{owner}.{method}")
            and qualified.startswith(f"{module}.")
        }
        if len(matches) == 1:
            called |= matches
        else:
            unknown.append(f"{owner}.{method}")
    return called, unknown


def _uncalled() -> Tuple[Set[str], Set[str]]:
    """Public names without a caller, and every public name."""
    names, attrs, calls = _code_tokens()
    assigned = _assigned_attributes()
    reads = _receiver_reads()
    members = _class_members()
    uncalled: Set[str] = set()
    defined: Set[str] = set()
    for qualified, name, node, path, is_method in _public_defs():
        defined.add(qualified)
        if is_method and name in assigned and _is_property(node):
            owner = members[qualified.split(".")[-2]]
            uses = [
                (where, line)
                for where, line, used in reads.get(name, ())
                if used <= owner
            ]
        elif is_method and name in assigned:
            uses = list(calls.get(name, ()))
        else:
            uses = list(attrs.get(name, ()))
        if not is_method:
            uses += names.get(name, ())
        outside = [
            use for use in uses
            if use[0] != path or not node.lineno <= use[1] <= node.end_lineno
        ]
        if not outside:
            uncalled.add(qualified)
    reflected, _ = _reflected(defined)
    return uncalled - reflected, defined


# Calls that bind their first argument's parameters: the rest of the call
# is a call of that function.
BINDERS = ("partial", "to_thread")

# (positional args, keyword names) of one call; None names a ``**`` spread
# that may pass any keyword.
Call = Tuple[List[ast.expr], List[Optional[str]]]


def _settings(func: ast.FunctionDef, bound: bool) -> Iterator[Tuple[str, int]]:
    """``(name, position)`` of each defaulted parameter; keyword-only ones
    have position -1.  ``bound`` drops ``self`` or ``cls``."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, -1


def _passes_constant(
    node: Optional[ast.expr], callee: str, keyword: str, value: object
) -> bool:
    """Whether ``node`` is a ``callee(...)`` call with ``keyword=value``."""
    return (
        isinstance(node, ast.Call)
        and _callee(node.func)[:1] == [callee]
        and any(
            kw.arg == keyword
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is value
            for kw in node.keywords
        )
    )


def _fields(cls: ast.ClassDef) -> Iterator[Tuple[str, bool]]:
    """``(name, defaulted)`` of each ``__init__`` field a dataclass body
    declares, in order (``ClassVar`` and ``field(init=False)`` excluded)."""
    for node in cls.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and "ClassVar" not in ast.unparse(node.annotation)
            and not _passes_constant(node.value, "field", "init", False)
        ):
            yield node.target.id, node.value is not None


def _setting_defs() -> Iterator[Tuple[str, List[str], List[Tuple[str, int]], bool]]:
    """``(qualified name, call keys, settings, is a dataclass)`` for every
    def that can hold settings (``(name, position)`` pairs); a method's key
    is ``.name``, ``__init__``'s its class.  A frozen dataclass holds its
    defaulted fields, called by its own name and its subclasses'; a field's
    position counts the fields it inherits from a frozen dataclass base."""
    frozen: Dict[str, Tuple[ast.ClassDef, str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                settings = list(_settings(node, False))
                yield f"{module}.{node.name}", [node.name], settings, False
            elif isinstance(node, ast.ClassDef):
                if any(
                    _passes_constant(d, "dataclass", "frozen", True)
                    for d in node.decorator_list
                ):
                    frozen[node.name] = (node, module)
                for member in node.body:
                    if not isinstance(member, ast.FunctionDef):
                        continue
                    qualified = f"{module}.{node.name}.{member.name}"
                    if member.name == "__init__":
                        settings = list(_settings(member, True))
                        yield qualified, [node.name], settings, False
                    elif not member.name.startswith("__"):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in member.decorator_list
                        )
                        settings = list(_settings(member, not static))
                        yield qualified, [f".{member.name}"], settings, False

    def ancestors(name: str) -> List[str]:
        bases = [_callee(b)[:1] for b in frozen[name][0].bases]
        parent = next((b[0] for b in bases if b and b[0] in frozen), None)
        return [] if parent is None else [*ancestors(parent), parent]

    for name, (cls, module) in frozen.items():
        inherited = sum(len(list(_fields(frozen[a][0]))) for a in ancestors(name))
        callers = [name, *(sub for sub in frozen if name in ancestors(sub))]
        settings = [
            (field, inherited + index)
            for index, (field, defaulted) in enumerate(_fields(cls))
            if defaulted
        ]
        yield f"{module}.{name}", callers, settings, True


def _callee(node: ast.expr) -> List[str]:
    """Call keys a callee expression resolves to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr, f".{node.attr}"]
    return []


def _spread_keys(
    value: ast.expr, call: ast.Call, owner: Dict[ast.AST, ast.AST]
) -> Optional[List[str]]:
    """The keywords a ``**value`` spread passes: the keys of ``dict(k=...)``
    (keywords only) or of a dict literal with constant string keys, when
    ``value`` is a name bound once, to one of them, in the innermost
    function around ``call`` that binds it; ``None`` (any keyword)
    otherwise."""
    if not isinstance(value, ast.Name):
        return None
    name = value.id
    func = owner.get(call)
    while func is not None:
        arguments = func.args
        parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        parameters += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
        stores = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.Name)
            and node.id == name
            and not isinstance(node.ctx, ast.Load)
        ]
        if any(arg.arg == name for arg in parameters):
            return None
        if stores:
            break
        func = owner.get(func)
    else:
        return None
    if len(stores) != 1:
        return None
    bound = next(
        (
            node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and node.targets == stores
        ),
        None,
    )
    if (
        isinstance(bound, ast.Call)
        and _callee(bound.func) == ["dict"]
        and not bound.args
        and all(kw.arg is not None for kw in bound.keywords)
    ):
        return [kw.arg for kw in bound.keywords]
    if isinstance(bound, ast.Dict) and all(
        isinstance(key, ast.Constant) and isinstance(key.value, str)
        for key in bound.keys
    ):
        return [key.value for key in bound.keys]
    return None


def _keywords(call: ast.Call, owner: Dict[ast.AST, ast.AST]) -> List[Optional[str]]:
    """The keyword names ``call`` passes (:data:`Call`)."""
    names: List[Optional[str]] = []
    for kw in call.keywords:
        if kw.arg is not None:
            names.append(kw.arg)
        else:
            keys = _spread_keys(kw.value, call, owner)
            names.extend([None] if keys is None else keys)
    return names


def _calls() -> Dict[str, List[Call]]:
    """Every call in the caller directories, by call key."""
    calls: Dict[str, List[Call]] = defaultdict(list)
    for base in CALLER_DIRS:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            # Each node's innermost enclosing function (walk is outer-first).
            owner: Dict[ast.AST, ast.AST] = {}
            for func in ast.walk(tree):
                if isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    for node in ast.walk(func):
                        if node is not func:
                            owner[node] = func
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "cls"
                    ):
                        # A classmethod's ``cls(...)`` builds this class.
                        calls[cls.name].append((node.args, _keywords(node, owner)))
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__init__"
                        and isinstance(node.func.value, ast.Call)
                        and _callee(node.func.value.func) == ["super"]
                    ):
                        for base_class in cls.bases:
                            for key in _callee(base_class)[:1]:
                                calls[key].append(
                                    (node.args, _keywords(node, owner))
                                )
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                keywords = _keywords(node, owner)
                keys = _callee(node.func)
                if keys and keys[0] in BINDERS and node.args:
                    call = (node.args[1:], keywords)
                    keys = _callee(node.args[0])
                else:
                    call = (node.args, keywords)
                for key in keys:
                    calls[key].append(call)
    return calls


def _passes(call: Call, name: str, position: int) -> bool:
    args, keywords = call
    if any(keyword in (None, name) for keyword in keywords):
        return True
    for index, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            return 0 <= index <= position
        if index == position:
            return True
    return False


def _unpassed_settings() -> Tuple[Set[str], Set[str]]:
    """Settings no call passes, and every setting, as ``qualified(name)``."""
    from repro.experiments.figures import CLAIMS

    drivers = {claim.driver.__name__ for claim in CLAIMS.values()}
    defs = list(_setting_defs())
    defined_once = Counter(keys[0].lstrip(".") for _, keys, _, _ in defs)
    calls = _calls()
    unpassed: Set[str] = set()
    every: Set[str] = set()
    for qualified, keys, settings, is_dataclass in defs:
        key = keys[0]
        for name, position in settings:
            setting = f"{qualified}({name})"
            every.add(setting)
            if defined_once[key.lstrip(".")] > 1 or key in drivers:
                continue
            passing = [(call, position) for k in keys for call in calls[k]]
            if is_dataclass:
                # ``replace(x, field=...)`` sets it by keyword only.
                passing += [(call, -1) for call in calls["replace"]]
            if not any(_passes(call, name, at) for call, at in passing):
                unpassed.add(setting)
    return unpassed, every


def test_every_uncalled_public_def_is_kept_for_a_reason():
    uncalled, _ = _uncalled()
    missing = sorted(uncalled - KEPT.keys())
    assert not missing, (
        "public names with no caller in src/, examples/ or benchmarks/; "
        "delete them with the tests that only cover them, or add them to "
        f"KEPT with the test or ROADMAP item they are kept for: {missing}"
    )


def test_kept_entries_are_live():
    uncalled, defined = _uncalled()
    gone = sorted(KEPT.keys() - defined)
    called = sorted((KEPT.keys() & defined) - uncalled)
    assert not gone, f"KEPT names defs that no longer exist: {gone}"
    assert not called, f"KEPT names defs that now have a caller: {called}"


def test_benchmark_boundaries_name_existing_methods():
    _, unknown = _reflected({qualified for qualified, *_ in _public_defs()})
    assert not unknown, (
        f"{LAYERS.relative_to(ROOT)} BOUNDARIES names methods that do not "
        f"exist: {unknown}"
    )


def test_every_kept_entry_has_a_reason():
    assert all(reason.strip() for reason in KEPT.values())


def test_every_unpassed_setting_is_kept_for_a_reason():
    unpassed, _ = _unpassed_settings()
    missing = sorted(unpassed - KEPT_PARAMS.keys())
    assert not missing, (
        "settings that no call in src/, examples/ or benchmarks/ passes; "
        "make each a constant where it is used, or add it to KEPT_PARAMS "
        f"with the test or ROADMAP item it is kept for: {missing}"
    )


def test_kept_params_entries_are_live():
    unpassed, settings = _unpassed_settings()
    gone = sorted(KEPT_PARAMS.keys() - settings)
    passed = sorted((KEPT_PARAMS.keys() & settings) - unpassed)
    assert not gone, f"KEPT_PARAMS names settings that no longer exist: {gone}"
    assert not passed, f"KEPT_PARAMS names settings that now have a caller: {passed}"
    assert all(reason.strip() for reason in KEPT_PARAMS.values())


def _annotation_names(tree: ast.AST) -> Iterator[str]:
    """Identifiers inside the string annotations of ``tree``."""
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
            every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
            annotations += [arg.annotation for arg in every if arg.annotation]
            annotations += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(parsed):
                    if isinstance(name, ast.Name):
                        yield name.id


def _unread_imports() -> Set[str]:
    """``"<path>:<name>"`` for every imported name its module never reads."""
    unread: Set[str] = set()
    for base in IMPORT_DIRS:
        for path in sorted(base.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            bound: Set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound.update(a.asname or a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound.update(a.asname or a.name for a in node.names)
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            read.update(_annotation_names(tree))
            where = path.relative_to(ROOT).as_posix()
            unread.update(f"{where}:{name}" for name in bound - read - {"*"})
    return unread


def test_every_import_is_read():
    unread = _unread_imports()
    missing = sorted(unread - SIDE_EFFECT_IMPORTS.keys())
    assert not missing, (
        "imported names their module never reads; delete the import, or "
        f"add it to SIDE_EFFECT_IMPORTS with the reason it stays: {missing}"
    )
    stale = sorted(SIDE_EFFECT_IMPORTS.keys() - unread)
    assert not stale, f"SIDE_EFFECT_IMPORTS entries read or gone: {stale}"
    assert all(reason.strip() for reason in SIDE_EFFECT_IMPORTS.values())
