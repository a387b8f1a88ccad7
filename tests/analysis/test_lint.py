"""Tests for the determinism linter: each rule gets positive and negative
fixtures, plus the acceptance check that the shipped tree lints clean."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.lint import RULE_EXEMPT_SUFFIXES

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(code: str, path: str = "module.py"):
    return lint_source(textwrap.dedent(code), path)


def rules_of(violations):
    return [v.rule for v in violations]


class TestWallClockRule:
    def test_time_time_flagged(self):
        violations = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rules_of(violations) == ["wall-clock"]

    def test_perf_counter_and_alias_flagged(self):
        violations = lint(
            """
            import time as t

            def bench():
                return t.perf_counter()
            """
        )
        assert rules_of(violations) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        violations = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert rules_of(violations) == ["wall-clock"]

    def test_from_import_datetime_now_flagged(self):
        violations = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert rules_of(violations) == ["wall-clock"]

    def test_scheduler_now_not_flagged(self):
        violations = lint(
            """
            def stamp(scheduler):
                return scheduler.now
            """
        )
        assert violations == []

    def test_unrelated_time_method_not_flagged(self):
        violations = lint(
            """
            def peek(event):
                return event.time
            """
        )
        assert violations == []

    def test_telemetry_profiler_is_exempt(self):
        """The harness-side wall-clock boundary: exactly one module."""
        code = """
            import time

            def wall_time():
                return time.perf_counter()
            """
        assert lint(code, "src/repro/telemetry/profiler.py") == []

    def test_resilience_supervisor_is_exempt(self):
        """The other harness-side boundary: watchdog deadlines and retry
        backoff genuinely consume wall-clock time."""
        code = """
            import time

            def deadline(timeout):
                return time.monotonic() + timeout
            """
        assert lint(code, "src/repro/experiments/resilience.py") == []

    def test_wall_clock_still_trips_elsewhere_in_telemetry(self):
        """The exemption must not leak to the simulator-side modules."""
        code = """
            import time

            def stamp():
                return time.perf_counter()
            """
        for path in (
            "src/repro/telemetry/registry.py",
            "src/repro/telemetry/timeline.py",
            "src/repro/telemetry/probe.py",
            "src/repro/experiments/sweep.py",
            "src/repro/experiments/journal.py",
            "src/repro/engine/scheduler.py",
        ):
            assert rules_of(lint(code, path)) == ["wall-clock"], path

    def test_every_exemption_covers_a_clock_read(self):
        """A wall-clock exemption names a module that exists and reads the
        clock: linted under a non-exempt path, its source trips REP101."""
        for suffix in RULE_EXEMPT_SUFFIXES["wall-clock"]:
            source_path = SRC_ROOT / suffix
            assert source_path.is_file(), f"stale exemption {suffix}"
            source = source_path.read_text(encoding="utf-8")
            violations = lint_source(source, "src/repro/not_exempt.py")
            assert "wall-clock" in rules_of(violations), f"stale exemption {suffix}"


class TestUnseededRandomRule:
    def test_module_level_draw_flagged(self):
        violations = lint(
            """
            import random

            def jitter():
                return random.uniform(0.75, 1.0)
            """
        )
        assert rules_of(violations) == ["unseeded-random"]

    def test_from_import_draw_flagged(self):
        violations = lint("from random import choice\n")
        assert rules_of(violations) == ["unseeded-random"]

    def test_seedless_random_instance_flagged(self):
        violations = lint(
            """
            import random

            def make_rng():
                return random.Random()
            """
        )
        assert rules_of(violations) == ["unseeded-random"]

    def test_seeded_random_instance_allowed(self):
        violations = lint(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """
        )
        assert violations == []

    def test_stream_draw_allowed(self):
        violations = lint(
            """
            def jitter(rng):
                return rng.uniform(0.75, 1.0)
            """
        )
        assert violations == []

    def test_random_annotation_allowed(self):
        violations = lint(
            """
            import random

            def use(rng: random.Random) -> float:
                return rng.random()
            """
        )
        assert violations == []

    def test_engine_rng_module_is_exempt(self):
        code = """
            import random

            def draw():
                return random.random()
            """
        assert rules_of(lint(code, "pkg/other.py")) == ["unseeded-random"]
        assert lint(code, "src/repro/engine/rng.py") == []


class TestUnorderedIterationRule:
    def test_for_over_set_literal_flagged(self):
        violations = lint(
            """
            def walk():
                for x in {3, 1, 2}:
                    print(x)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_for_over_set_call_flagged(self):
        violations = lint(
            """
            def walk(items):
                for x in set(items):
                    print(x)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_for_over_set_typed_local_flagged(self):
        violations = lint(
            """
            def walk(a, b):
                merged = set(a) | set(b)
                for x in merged:
                    print(x)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_for_over_set_typed_self_attribute_flagged(self):
        violations = lint(
            """
            class Speaker:
                def __init__(self):
                    self._origins = set()

                def advertise(self):
                    for prefix in self._origins:
                        print(prefix)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_list_materialization_of_set_flagged(self):
        violations = lint(
            """
            def snapshot(items):
                return list(set(items))
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_comprehension_over_set_flagged(self):
        violations = lint(
            """
            def walk(items):
                return [x + 1 for x in set(items)]
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_sorted_set_allowed(self):
        violations = lint(
            """
            def walk(items):
                for x in sorted(set(items)):
                    print(x)
            """
        )
        assert violations == []

    def test_membership_test_allowed(self):
        violations = lint(
            """
            def has(items, x):
                mine = set(items)
                return x in mine
            """
        )
        assert violations == []

    def test_values_loop_feeding_scheduler_flagged(self):
        violations = lint(
            """
            def rearm(timers, scheduler):
                for timer in timers.values():
                    scheduler.call_at(timer.deadline, timer.fire)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_values_loop_injecting_faults_flagged(self):
        violations = lint(
            """
            def inject_all(faults, net):
                for fault in faults.values():
                    fault.inject(net)
            """
        )
        assert rules_of(violations) == ["unordered-iteration"]

    def test_values_loop_without_emission_allowed(self):
        violations = lint(
            """
            def cancel_all(timers):
                for timer in timers.values():
                    timer.cancel()
            """
        )
        assert violations == []


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        violations = lint(
            """
            def handler(event, queue=[]):
                queue.append(event)
            """
        )
        assert rules_of(violations) == ["mutable-default"]

    def test_dict_and_set_defaults_flagged(self):
        violations = lint(
            """
            def handler(event, *, seen=set(), state={}):
                pass
            """
        )
        assert rules_of(violations) == ["mutable-default", "mutable-default"]

    def test_none_default_allowed(self):
        violations = lint(
            """
            def handler(event, queue=None):
                pass
            """
        )
        assert violations == []

    def test_immutable_defaults_allowed(self):
        violations = lint(
            """
            def handler(event, retries=3, name="x", window=(0.75, 1.0)):
                pass
            """
        )
        assert violations == []


class TestFloatTimeEqRule:
    def test_timestamp_equality_flagged(self):
        violations = lint(
            """
            def same_instant(a, b):
                return a.time == b.arrival_time
            """
        )
        assert rules_of(violations) == ["float-time-eq"]

    def test_now_inequality_flagged(self):
        violations = lint(
            """
            def moved(scheduler, start_time):
                return scheduler.now != start_time
            """
        )
        assert rules_of(violations) == ["float-time-eq"]

    def test_ordering_comparison_allowed(self):
        violations = lint(
            """
            def earlier(a, b):
                return a.time <= b.time
            """
        )
        assert violations == []

    def test_non_time_equality_allowed(self):
        violations = lint(
            """
            def same(a, b):
                return a.count == b.count
            """
        )
        assert violations == []

    def test_none_sentinel_allowed(self):
        violations = lint(
            """
            def unset(record):
                return record.time == None
            """
        )
        assert violations == []


class TestUninternedAsPathRule:
    def test_direct_construction_flagged(self):
        violations = lint(
            """
            from repro.bgp.path import AsPath

            def build():
                return AsPath((1, 2, 3))
            """
        )
        assert rules_of(violations) == ["uninterned-aspath"]

    def test_qualified_construction_flagged(self):
        violations = lint(
            """
            from repro.bgp import path

            def build():
                return path.AsPath((1, 2, 3))
            """
        )
        assert rules_of(violations) == ["uninterned-aspath"]

    def test_interning_factories_allowed(self):
        violations = lint(
            """
            from repro.bgp.path import AsPath, intern_path

            def build():
                return (
                    AsPath.of((1, 2, 3)),
                    AsPath.empty(),
                    intern_path((4, 5)),
                )
            """
        )
        assert violations == []

    def test_path_module_is_exempt(self):
        violations = lint(
            """
            def intern_path(ases=()):
                return AsPath(ases)
            """,
            path="src/repro/bgp/path.py",
        )
        assert violations == []

    def test_allow_comment_suppresses(self):
        violations = lint(
            """
            def uninterned_fixture():
                return AsPath((1, 2))  # lint: allow(uninterned-aspath) -- twin
            """
        )
        assert violations == []


class TestStatefulPolicyHookRule:
    def test_self_assignment_in_hook_flagged(self):
        violations = lint(
            """
            class CachingPolicy(RoutingPolicy):
                def accept_import(self, neighbor, route):
                    self._last = route
                    return True
            """
        )
        assert rules_of(violations) == ["stateful-policy-hook"]

    def test_every_hook_name_is_covered(self):
        for hook in (
            "accept_import", "local_pref", "preference_key", "accept_export"
        ):
            violations = lint(
                f"""
                class P(RoutingPolicy):
                    def {hook}(self, *args):
                        self.calls = 1
                        return True
                """
            )
            assert rules_of(violations) == ["stateful-policy-hook"], hook

    def test_augmented_and_subscript_mutation_flagged(self):
        violations = lint(
            """
            class CountingPolicy(GaoRexfordPolicy):
                def local_pref(self, neighbor, route):
                    self._hits += 1
                    return 100

                def accept_export(self, neighbor, route):
                    self._cache[route.path] = route
                    return True
            """
        )
        assert rules_of(violations) == [
            "stateful-policy-hook", "stateful-policy-hook",
        ]

    def test_global_declaration_in_hook_flagged(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def preference_key(self, route):
                    global CALLS
                    return (0,)
            """
        )
        assert rules_of(violations) == ["stateful-policy-hook"]

    def test_init_and_helpers_may_assign_state(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def __init__(self, peer):
                    self._peer = peer

                def rebuild(self):
                    self._table = {}

                def accept_import(self, neighbor, route):
                    return route.next_hop == self._peer
            """
        )
        assert violations == []

    def test_non_policy_class_hooks_are_not_bound(self):
        violations = lint(
            """
            class Recorder:
                def accept_import(self, neighbor, route):
                    self.seen = route
                    return True
            """
        )
        assert violations == []

    def test_local_variables_in_hooks_allowed(self):
        violations = lint(
            """
            class P(ShortestPathPolicy):
                def preference_key(self, route):
                    rank = route.hop_count
                    return (rank,)
            """
        )
        assert violations == []

    def test_allow_comment_suppresses(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def accept_import(self, neighbor, route):
                    self._n = 1  # lint: allow(stateful-policy-hook) -- test double
                    return True
            """
        )
        assert violations == []


class TestPrefixReadingHookRule:
    def test_every_hook_flags_a_route_prefix_read(self):
        for hook, params in (
            ("accept_import", "neighbor, route"),
            ("local_pref", "neighbor, route"),
            ("preference_key", "route"),
            ("accept_export", "neighbor, route"),
        ):
            violations = lint(
                f"""
                class P(RoutingPolicy):
                    def {hook}(self, {params}):
                        return route.prefix == "d"
                """
            )
            assert rules_of(violations) == ["prefix-reading-hook"], hook
            assert violations[0].code == "REP108"

    def test_the_route_parameter_is_found_by_position(self):
        violations = lint(
            """
            class P(GaoRexfordPolicy):
                def local_pref(self, peer, candidate):
                    return 200 if candidate.prefix.startswith("10") else 100
            """
        )
        assert rules_of(violations) == ["prefix-reading-hook"]

    def test_other_fields_and_other_names_are_not_flagged(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def preference_key(self, route):
                    return (route.hop_count, self.prefix, ORIGIN.prefix)
            """
        )
        assert violations == []

    def test_helpers_and_non_policy_classes_are_not_bound(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def describe(self, route):
                    return route.prefix

            class Recorder:
                def accept_import(self, neighbor, route):
                    return route.prefix == "d"
            """
        )
        assert violations == []

    def test_allow_comment_suppresses(self):
        violations = lint(
            """
            class P(RoutingPolicy):
                def accept_export(self, neighbor, route):
                    return route.prefix != "x"  # lint: allow(prefix-reading-hook) -- fixture
            """
        )
        assert violations == []


class TestSuppressedFindings:
    SOURCE = """
        def same_instant(a, b):
            return a.time == b.time  # lint: allow(float-time-eq) -- grouping
        """

    def test_dropped_by_default(self):
        assert lint(self.SOURCE) == []

    def test_kept_and_marked_when_requested(self):
        import textwrap

        from repro.analysis import lint_source

        (violation,) = lint_source(
            textwrap.dedent(self.SOURCE), "module.py", keep_suppressed=True
        )
        assert violation.suppressed
        assert violation.rule == "float-time-eq"
        assert violation.render().endswith("(suppressed)")

    def test_to_json_carries_the_suppressed_flag(self):
        import textwrap

        from repro.analysis import lint_source

        (violation,) = lint_source(
            textwrap.dedent(self.SOURCE), "module.py", keep_suppressed=True
        )
        payload = violation.to_json()
        assert payload["suppressed"] is True
        assert payload["rule"] == "float-time-eq"
        assert payload["code"] == "REP105"
        assert payload["line"] == 3


class TestSuppression:
    def test_allow_comment_suppresses_on_same_line(self):
        violations = lint(
            """
            def same_instant(a, b):
                return a.time == b.time  # lint: allow(float-time-eq) -- grouping
            """
        )
        assert violations == []

    def test_allow_comment_is_rule_specific(self):
        violations = lint(
            """
            def same_instant(a, b):
                return a.time == b.time  # lint: allow(wall-clock)
            """
        )
        assert rules_of(violations) == ["float-time-eq"]


class TestLintPaths:
    def test_directory_expansion_and_ordering(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        (tmp_path / "good.py").write_text("def f():\n    return 1\n")
        violations = lint_paths([str(tmp_path)])
        assert rules_of(violations) == ["wall-clock"]
        assert violations[0].path.endswith("bad.py")
        assert violations[0].line == 4

    def test_findings_sorted_by_path_line_code(self, tmp_path):
        (tmp_path / "b.py").write_text(
            "import time\n"
            "\n"
            "def f(q=[]):\n"
            "    return time.time()\n"
        )
        (tmp_path / "a.py").write_text("from random import choice\n")
        violations = lint_paths([str(tmp_path)])
        keys = [(v.path, v.line, v.col, v.code) for v in violations]
        assert keys == sorted(keys)
        assert [v.rule for v in violations] == [
            "unseeded-random", "mutable-default", "wall-clock",
        ]

    def test_render_mentions_rule_and_code(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("from random import choice\n")
        (violation,) = lint_paths([str(target)])
        rendered = violation.render()
        assert "REP102" in rendered
        assert "unseeded-random" in rendered

    def test_every_rule_has_code_and_description(self):
        for rule, (code, description) in RULES.items():
            assert code.startswith("REP")
            assert description

    def test_shipped_tree_is_clean(self):
        # The examples too: users copy their policies from there.
        examples = SRC_ROOT.parents[1] / "examples"
        assert lint_paths([str(SRC_ROOT), str(examples)]) == []
