"""A determinism linter for the simulator's own source tree.

The paper's loop-duration results (worst case ``(m-1) × M`` seconds per
m-node loop) are only reproducible when every trial is bit-for-bit
deterministic under a fixed seed.  That property is easy to lose by
accident: one ``time.time()`` in a hot path, one unseeded ``random``
draw, one ``for`` loop over a ``set`` that decides message emission
order.  This module is a custom AST pass that rejects those patterns
*statically*, before they ever corrupt a measurement.

Rules (each violation carries the rule's short name):

``wall-clock`` (REP101)
    No wall-clock reads (``time.time``, ``datetime.now``,
    ``perf_counter``...) inside the simulator.  Simulation time comes
    from :attr:`repro.engine.scheduler.Scheduler.now`, nothing else.
``unseeded-random`` (REP102)
    No module-level ``random`` draws and no seedless ``random.Random()``
    outside :mod:`repro.engine.rng`.  All randomness must flow through
    the run's named, seeded streams.
``unordered-iteration`` (REP103)
    No iteration (``for``, comprehensions, ``list()``/``tuple()``
    materialization) directly over ``set``/``frozenset`` values — wrap
    in ``sorted()``.  ``dict.values()``/``dict.keys()`` iteration is
    additionally rejected when the loop body schedules events or emits
    messages: insertion order is deterministic *today*, but a
    scheduler-feeding loop must make its order explicit.
``mutable-default`` (REP104)
    No mutable default arguments (``[]``, ``{}``, ``set()``...) in any
    function signature — shared mutable state across events is a
    classic cross-run contamination vector.
``float-time-eq`` (REP105)
    No ``==``/``!=`` between floating-point simulation timestamps
    (operands named ``now``, ``time``, ``*_time``...).  Exact float
    equality on computed times is almost always a latent bug; compare
    with an ordering or an explicit tolerance.
``uninterned-aspath`` (REP106)
    No direct ``AsPath(...)`` construction outside :mod:`repro.bgp.path`.
    Un-interned paths silently disable the identity-equality fast path
    and duplicate the per-path hash/frozenset work; obtain paths through
    ``AsPath.of()`` / ``intern_path()`` or the path algebra methods,
    which always return canonical instances.
``stateful-policy-hook`` (REP107)
    No assignments to ``self.*`` (and no ``global`` declarations) inside
    the decision hooks (``accept_import``, ``local_pref``,
    ``preference_key``, ``accept_export``) of a ``RoutingPolicy``
    subclass.  The policy contract says hooks are pure functions of their
    arguments; hook-local mutable state breaks the decision cache, the
    static stability analyzer (which assumes re-querying a hook is
    side-effect free), and cross-run determinism.  Configure state in
    ``__init__`` instead.
``prefix-reading-hook`` (REP108)
    No read of ``<route>.prefix`` (the hook's route parameter) inside
    those hooks.  The speaker evaluates each hook once per route-state
    group (prefixes with equal candidates) and applies the answer to all.

A line may opt out with a justification comment::

    if a.time == b.time:  # lint: allow(float-time-eq) -- same source value

Run it as ``python -m repro lint [paths...]`` (the CI gate) or through
:func:`lint_paths` / :func:`lint_source` programmatically.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: rule short-name -> (code, one-line description)
RULES: Dict[str, Tuple[str, str]] = {
    "wall-clock": (
        "REP101", "wall-clock read inside the simulator; use Scheduler.now"
    ),
    "unseeded-random": (
        "REP102",
        "module-level / unseeded randomness; draw from engine.rng streams",
    ),
    "unordered-iteration": (
        "REP103", "iteration over an unordered collection; wrap in sorted()"
    ),
    "mutable-default": (
        "REP104", "mutable default argument in a function signature"
    ),
    "float-time-eq": (
        "REP105", "== / != between floating-point simulation timestamps"
    ),
    "uninterned-aspath": (
        "REP106",
        "direct AsPath(...) construction bypasses the intern table; use "
        "AsPath.of() / intern_path()",
    ),
    "stateful-policy-hook": (
        "REP107",
        "policy decision hook mutates state; hooks must be pure functions "
        "of their arguments (configure in __init__)",
    ),
    "prefix-reading-hook": (
        "REP108",
        "policy decision hook reads route.prefix; hooks are prefix-blind "
        "(evaluated once per route-state group)",
    ),
}

#: Per-rule path suffixes that are exempt (the one sanctioned home of the
#: pattern).  Matched against POSIX-style path suffixes.
#:
#: ``telemetry/profiler.py`` is the harness-side wall-clock boundary: it
#: times sweeps, figure drivers, and benchmarks — activity *about* the
#: simulation, never *inside* it.  Nothing under engine/net/bgp/dataplane
#: may import it, so exempting this one file keeps REP101 airtight for
#: the simulator while giving harness profiling a sanctioned home.  Any
#: wall-clock read in other telemetry modules (registry, timeline, probe)
#: still trips REP101 — the tests pin that.
RULE_EXEMPT_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "unseeded-random": ("engine/rng.py",),
    # resilience.py is harness-side supervision *about* the simulation
    # (watchdog deadlines, backoff cooldowns) — wall clock is its job,
    # exactly like the profiler's.  The service modules sit entirely on
    # the harness side of the boundary too: job timestamps and execution
    # timelines are wall-clock by nature, and nothing under
    # engine/net/bgp/dataplane may import them.
    "wall-clock": (
        "telemetry/profiler.py",
        "experiments/resilience.py",
        "service/queue.py",
        "service/executor.py",
    ),
    # path.py is the intern table's home: its factories construct the
    # canonical instances everyone else must obtain via AsPath.of().
    "uninterned-aspath": ("bgp/path.py",),
}

_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

_RANDOM_DRAW_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes", "seed",
})

#: Attribute-call names whose presence in a loop body marks the loop as
#: feeding the scheduler or the message plane.
_EMISSION_CALLS = frozenset({"call_at", "call_after", "send", "submit", "inject"})

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "defaultdict", "Counter", "deque", "OrderedDict",
})

#: The RoutingPolicy decision hooks bound by the purity contract (REP107,
#: REP108), each with the position of its route parameter (``self`` is 0).
_POLICY_HOOKS = {
    "accept_import": 2, "local_pref": 2, "preference_key": 1, "accept_export": 2,
}

_TIMEY_NAME = re.compile(r"^(now|_now|time|timestamp|.*_time|.*_now)$")

_ALLOW_COMMENT = re.compile(r"#\s*lint:\s*allow\(([a-z0-9_,\s-]+)\)")


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at one source location.

    ``suppressed`` is True for findings neutralized by a
    ``# lint: allow(rule)`` comment; they are excluded from default
    output and never affect the exit code, but ``--format json`` can
    surface them so CI diffs see the full picture.
    """

    rule: str
    code: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"[{self.rule}] {self.message}{tag}"
        )

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _SetTypeTracker:
    """Best-effort local inference of which names hold ``set`` values.

    Tracks, per module: function-local names assigned set-producing
    expressions, and ``self.<attr>`` targets assigned set-producing
    expressions anywhere in their class (the speaker's ``_origins``
    pattern).  Deliberately simple — no flow sensitivity — because the
    goal is catching the common shapes, not soundness.
    """

    _SET_METHODS = frozenset({
        "union", "intersection", "difference", "symmetric_difference", "copy",
    })
    _SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def __init__(self) -> None:
        self.local_sets: Set[str] = set()
        self.attr_sets: Set[str] = set()

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.local_sets
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.attr_sets
            )
        return False

    def observe_assignment(self, target: ast.AST, value: ast.AST) -> None:
        if not self.is_set_expr(value):
            return
        if isinstance(target, ast.Name):
            self.local_sets.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.attr_sets.add(target.attr)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, exempt_rules: Set[str]) -> None:
        self.path = path
        self.exempt_rules = exempt_rules
        self.violations: List[LintViolation] = []
        # import alias -> real module name ("time", "random", "datetime")
        self.module_aliases: Dict[str, str] = {}
        # bare name -> dotted origin ("datetime.datetime", "time.time", ...)
        self.from_imports: Dict[str, str] = {}
        self.sets = _SetTypeTracker()

    # ------------------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.exempt_rules:
            return
        code, _ = RULES[rule]
        self.violations.append(
            LintViolation(
                rule=rule,
                code=code,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in ("time", "random", "datetime"):
                self.module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("time", "datetime", "random"):
            for alias in node.names:
                origin = f"{node.module}.{alias.name}"
                self.from_imports[alias.asname or alias.name] = origin
                if node.module == "random" and alias.name in _RANDOM_DRAW_FUNCS:
                    self.report(
                        "unseeded-random",
                        node,
                        f"importing random.{alias.name} bypasses the seeded "
                        f"stream discipline; use RandomStreams",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Calls: wall clock, module-level random, list/tuple over sets
    # ------------------------------------------------------------------

    def _resolve_call_name(self, func: ast.AST) -> Optional[str]:
        """Resolve a called name through the module's import aliases."""
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root in self.module_aliases:
            dotted = self.module_aliases[root] + ("." + rest if rest else "")
        elif root in self.from_imports:
            dotted = self.from_imports[root] + ("." + rest if rest else "")
        return dotted

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve_call_name(node.func)
        if resolved in _WALL_CLOCK_CALLS:
            self.report(
                "wall-clock",
                node,
                f"{resolved}() reads the host clock; simulation code must "
                f"use Scheduler.now",
            )
        elif resolved is not None and resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if tail in _RANDOM_DRAW_FUNCS:
                self.report(
                    "unseeded-random",
                    node,
                    f"{resolved}() draws from the shared module-level RNG; "
                    f"use a named RandomStreams stream",
                )
            elif tail == "Random" and not node.args and not node.keywords:
                self.report(
                    "unseeded-random",
                    node,
                    "random.Random() without a seed is entropy-seeded; pass "
                    "an explicit derived seed",
                )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self.sets.is_set_expr(node.args[0])
        ):
            self.report(
                "unordered-iteration",
                node,
                f"{node.func.id}() over a set materializes nondeterministic "
                f"order; use sorted()",
            )
        # The *called object itself* must be AsPath — `AsPath(...)` or
        # `path.AsPath(...)`; classmethod factories (`AsPath.of(...)`,
        # `AsPath.empty()`) resolve to "AsPath.of" etc. and pass.
        if (
            isinstance(node.func, ast.Name) and node.func.id == "AsPath"
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "AsPath"
        ):
            self.report(
                "uninterned-aspath",
                node,
                "AsPath(...) constructs an un-interned path; use AsPath.of() "
                "or intern_path() so equality stays an identity check",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Assignments feed the set tracker
    # ------------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.sets.observe_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.sets.observe_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.sets.observe_assignment(node.target, node.value)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Iteration order
    # ------------------------------------------------------------------

    def _check_iteration(self, iter_node: ast.AST, body: Sequence[ast.stmt]) -> None:
        if self.sets.is_set_expr(iter_node):
            self.report(
                "unordered-iteration",
                iter_node,
                "iterating a set yields hash order; wrap in sorted()",
            )
            return
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("values", "keys")
            and body
            and self._body_emits(body)
        ):
            self.report(
                "unordered-iteration",
                iter_node,
                f"loop over .{iter_node.func.attr}() schedules events or "
                f"emits messages; iterate an explicitly sorted view",
            )

    def _body_emits(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    attr = sub.func.attr
                    if attr in _EMISSION_CALLS or attr.startswith("schedule_"):
                        return True
        return False

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.body)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, ())
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ------------------------------------------------------------------
    # Function signatures: mutable defaults
    # ------------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                self.report(
                    "mutable-default",
                    default,
                    f"default argument of {node.name}() is mutable and shared "
                    f"across calls; default to None",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report(
                    "mutable-default",
                    default,
                    "default argument of lambda is mutable and shared across "
                    "calls; default to None",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Float timestamp equality
    # ------------------------------------------------------------------

    @staticmethod
    def _is_timey(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return bool(_TIMEY_NAME.match(node.attr))
        if isinstance(node, ast.Name):
            return bool(_TIMEY_NAME.match(node.id))
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # None sentinels are identity-style checks, not float equality.
            if any(
                isinstance(o, ast.Constant) and o.value is None
                for o in (left, right)
            ):
                continue
            if self._is_timey(left) and self._is_timey(right):
                self.report(
                    "float-time-eq",
                    node,
                    "exact equality between simulation timestamps; compare "
                    "with an ordering or an explicit tolerance",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Policy-hook purity (REP107) and prefix-blindness (REP108)
    # ------------------------------------------------------------------

    @staticmethod
    def _is_policy_class(node: ast.ClassDef) -> bool:
        """True when any base class name ends in ``Policy``.

        Syntactic by design (no type resolution): the convention in this
        codebase is that every RoutingPolicy descendant keeps the suffix,
        and the rule must work file-by-file without imports.
        """
        for base in node.bases:
            dotted = _dotted_name(base)
            if dotted is not None and dotted.split(".")[-1].endswith("Policy"):
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_policy_class(node):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in _POLICY_HOOKS
                ):
                    self._check_policy_hook(node.name, item)
        self.generic_visit(node)

    def _check_policy_hook(self, class_name: str, func: ast.FunctionDef) -> None:
        hook = f"{class_name}.{func.name}()"
        params = [*func.args.posonlyargs, *func.args.args]
        position = _POLICY_HOOKS[func.name]
        route = params[position].arg if position < len(params) else None
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "prefix"
                and isinstance(sub.value, ast.Name)
                and sub.value.id == route
            ):
                self.report(
                    "prefix-reading-hook",
                    sub,
                    f"{hook} reads {route}.prefix; policy hooks are "
                    f"prefix-blind (rank by path, next hop, LOCAL_PREF)",
                )
                continue
            if isinstance(sub, ast.Global):
                self.report(
                    "stateful-policy-hook",
                    sub,
                    f"{hook} declares global {', '.join(sub.names)}; policy "
                    f"hooks must be pure functions of their arguments",
                )
                continue
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        self.report(
                            "stateful-policy-hook",
                            leaf,
                            f"{hook} assigns self.{leaf.attr}; policy hooks "
                            f"must be pure — configure state in __init__",
                        )


def _prescan_set_attrs(tree: ast.Module, tracker: _SetTypeTracker) -> None:
    """Collect ``self.<attr> = set(...)`` targets across the whole module.

    Done before the lint walk so a method can be flagged for iterating an
    attribute that ``__init__`` (visited later or earlier) established as a
    set.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                tracker.observe_assignment(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            tracker.observe_assignment(node.target, node.value)


def _suppressed_rules_by_line(source: str) -> Dict[int, Set[str]]:
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_COMMENT.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            suppressed[lineno] = rules
    return suppressed


def lint_source(
    source: str, path: str = "<string>", keep_suppressed: bool = False
) -> List[LintViolation]:
    """Lint one module's source text; returns violations in line order.

    By default, findings neutralized by a ``# lint: allow(rule)`` comment
    are dropped.  With ``keep_suppressed=True`` they are returned too,
    flagged with ``suppressed=True`` — callers deciding an exit code must
    then filter on the flag themselves.
    """
    tree = ast.parse(source, filename=path)
    posix = Path(path).as_posix()
    exempt = {
        rule
        for rule, suffixes in RULE_EXEMPT_SUFFIXES.items()
        if any(posix.endswith(suffix) for suffix in suffixes)
    }
    linter = _Linter(path, exempt)
    _prescan_set_attrs(tree, linter.sets)
    linter.visit(tree)
    suppressed = _suppressed_rules_by_line(source)
    kept: List[LintViolation] = []
    for violation in linter.violations:
        if violation.rule in suppressed.get(violation.line, ()):
            if keep_suppressed:
                kept.append(replace(violation, suppressed=True))
        else:
            kept.append(violation)
    return sorted(kept, key=lambda v: (v.line, v.col, v.code))


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        else:
            found.append(path)
    return found


def lint_paths(
    paths: Iterable[str], keep_suppressed: bool = False
) -> List[LintViolation]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Output order is deterministic regardless of filesystem enumeration:
    sorted by (path, line, col, code).
    """
    violations: List[LintViolation] = []
    for file in iter_python_files(paths):
        violations.extend(
            lint_source(file.read_text(), str(file), keep_suppressed)
        )
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.code))
