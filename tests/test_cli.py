"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.core import ObservationCheck
from repro.experiments.figures import CLAIMS
from repro.experiments.report import TableData


class TestParser:
    def test_figure_choices_are_the_claims(self):
        parser = build_parser()
        for claim_id in CLAIMS:
            assert parser.parse_args(["figure", claim_id]).id == claim_id

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--size", "4", "--mrai", "1",
             "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence time" in out
        assert "looping ratio" in out

    def test_run_with_loop_stats(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--size", "5", "--mrai", "2",
             "--seed", "1", "--loop-stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "loop lifetimes observed" in out or "no loops observed" in out

    def test_run_tlong_bclique(self, capsys):
        code = main(
            ["run", "--topology", "b-clique", "--size", "3", "--event",
             "tlong", "--mrai", "1", "--seed", "0"]
        )
        assert code == 0
        assert "tlong-bclique-3" in capsys.readouterr().out

    def test_run_variant_selection(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--size", "4", "--variant",
             "ghost-flushing", "--mrai", "1"]
        )
        assert code == 0
        assert "ghost-flushing" in capsys.readouterr().out

    def test_run_with_damping_flag(self, capsys):
        code = main(
            ["run", "--topology", "b-clique", "--size", "3", "--event",
             "tlong", "--mrai", "1", "--damping-half-life", "20"]
        )
        assert code == 0
        assert "convergence time" in capsys.readouterr().out

    def test_run_verbose_full_report(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--size", "4", "--mrai", "1",
             "--seed", "1", "--verbose"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "updates sent" in out
        assert "individual loops" in out

    def test_run_invalid_tlong_topology_fails_cleanly(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--event", "tlong", "--size", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFigureCommand:
    def test_quick_figure_renders_table(self, capsys):
        code = main(["figure", "fig4a", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4a" in out
        assert "looping_duration" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize("figure_id", sorted(CLAIMS))
    def test_every_quick_figure_terminates_and_renders(self, capsys, figure_id):
        code = main(["figure", figure_id, "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()

    def test_quick_figure_with_plot(self, capsys):
        code = main(["figure", "fig4a", "--quick", "--plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "looping_duration" in out
        assert " |" in out  # the chart's y-axis gutter


def _stub_claim(monkeypatch, holds, divergences=None):
    """Swap the theory row for a driver returning one check, ``holds``."""

    def driver():
        return TableData(
            "theory", checks=[ObservationCheck("stub-check", holds, "stub")]
        )

    claim = dataclasses.replace(
        CLAIMS["theory"], driver=driver, divergences=divergences or {}
    )
    monkeypatch.setitem(CLAIMS, "theory", claim)


class TestFigureExitStatus:
    """At claim parameters the exit status says whether the claim holds."""

    def test_unexpected_failure_exits_one(self, monkeypatch, capsys):
        _stub_claim(monkeypatch, holds=False)
        code = main(["figure", "theory"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "stub-check: VIOLATED — stub\n"
        assert "claim not reproduced: stub-check" in captured.err

    def test_documented_divergence_that_still_fails_exits_zero(
        self, monkeypatch, capsys
    ):
        _stub_claim(monkeypatch, holds=False, divergences={"stub-check": 1})
        assert main(["figure", "theory"]) == 0
        assert capsys.readouterr().err == ""

    def test_divergence_that_now_holds_exits_one(self, monkeypatch, capsys):
        _stub_claim(monkeypatch, holds=True, divergences={"stub-check": 1})
        code = main(["figure", "theory"])
        assert code == 1
        assert "known divergence 1 (EXPERIMENTS.md) now holds" in (
            capsys.readouterr().err
        )

    def test_quick_failure_exits_zero_with_footer(self, monkeypatch, capsys):
        _stub_claim(monkeypatch, holds=False)
        code = main(["figure", "theory", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shape checks NOT satisfied at these parameters:" in out


class TestTopologyCommand:
    def test_clique_edge_list(self, capsys):
        code = main(["topology", "--kind", "clique", "--size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 1" in out
        assert out.count("\n") == 1 + 6  # header + 6 edges

    @pytest.mark.parametrize("kind,size", [("chain", 4), ("ring", 5), ("star", 4)])
    def test_named_generator_kinds(self, capsys, kind, size):
        code = main(["topology", "--kind", kind, "--size", str(size)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{kind}-{size}" in out  # topology name in the header comment

    def test_run_on_named_generator_topology(self, capsys):
        code = main(
            ["run", "--topology", "ring", "--size", "4", "--mrai", "1",
             "--seed", "2"]
        )
        assert code == 0
        assert "tdown-ring-4" in capsys.readouterr().out

    def test_internet_edge_list_round_trips(self, capsys):
        import io

        from repro.topology import internet_like, load_edge_list

        code = main(["topology", "--kind", "internet", "--size", "12",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert load_edge_list(io.StringIO(out)) == internet_like(12, seed=3)


class TestListCommand:
    def test_list_mentions_everything(self, capsys):
        code = main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4a" in out and "fig9d" in out and "theory" in out
        assert "ghost-flushing" in out
        assert "b-clique" in out


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f():\n    return 1\n")
        code = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint clean" in out

    def test_violating_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        code = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP101" in out
        assert "wall-clock" in out
        assert "1 determinism violation(s)" in out

    def test_default_target_is_the_package_and_it_is_clean(self, capsys):
        code = main(["lint"])
        assert code == 0
        assert "lint clean" in capsys.readouterr().out

    def test_json_format_reports_structured_findings(self, tmp_path, capsys):
        import json

        target = tmp_path / "bad.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        code = main(["lint", "--format", "json", str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["unsuppressed"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "wall-clock"
        assert violation["code"] == "REP101"
        assert violation["line"] == 4
        assert violation["suppressed"] is False

    def test_json_keeps_suppressed_findings_but_exits_zero(
        self, tmp_path, capsys
    ):
        import json

        target = tmp_path / "waived.py"
        target.write_text(
            "def same(a, b):\n"
            "    return a.time == b.time"
            "  # lint: allow(float-time-eq) -- grouping\n"
        )
        code = main(["lint", "--format", "json", str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0  # suppressed findings are visible but not fatal
        assert payload["suppressed"] == 1
        assert payload["unsuppressed"] == 0
        assert payload["violations"][0]["suppressed"] is True

    def test_findings_print_in_deterministic_order(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text("from random import choice\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert out.index("a.py") < out.index("b.py")

    def test_rep107_finding_surfaces_through_the_cli(self, tmp_path, capsys):
        target = tmp_path / "policy.py"
        target.write_text(
            "class P(RoutingPolicy):\n"
            "    def accept_import(self, neighbor, route):\n"
            "        self.seen = route\n"
            "        return True\n"
        )
        code = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP107" in out
        assert "stateful-policy-hook" in out


class TestStabilityCommand:
    def test_certifies_named_gadget_with_certificate(self, capsys):
        code = main(["stability", "bad-gadget"])
        out = capsys.readouterr().out
        assert code == 0
        assert "UNSAFE" in out
        assert "dispute wheel" in out

    def test_safe_scenario_names_the_method(self, capsys):
        code = main(["stability", "tdown-clique-5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SAFE" in out
        assert "shortest-path" in out

    def test_json_format_carries_the_wheel(self, capsys):
        import json

        code = main(["stability", "disagree", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        report = payload["verdicts"]["disagree"]
        assert report["verdict"] == "unsafe"
        assert sorted(report["wheel"]["rim"]) == [1, 2]

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["stability", "no-such-gadget"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_check_against_committed_verdicts(self, capsys):
        code = main(
            ["stability", "--check",
             "benchmarks/baselines/STABILITY_verdicts.json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all 7 verdict(s) match" in out

    def test_check_flags_drift(self, tmp_path, capsys):
        import json

        stale = tmp_path / "expected.json"
        stale.write_text(
            json.dumps(
                {"disagree": {"verdict": "safe", "method": "no-dispute-wheel"}}
            )
        )
        code = main(["stability", "disagree", "--check", str(stale)])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict drift" in out

    def test_observe_runs_the_unsafe_scenarios(self, capsys):
        code = main(["stability", "bad-gadget", "--observe"])
        out = capsys.readouterr().out
        assert code == 0
        assert "persistent-oscillation" in out


class TestDeterminismCommand:
    def test_dual_run_on_small_clique_is_identical(self, capsys):
        code = main(["determinism", "--size", "3", "--mrai", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL" in out

    def test_sanitized_dual_run_is_identical(self, capsys):
        code = main(
            ["determinism", "--size", "3", "--mrai", "1", "--sanitize"]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_run_with_sanitize_flag(self, capsys):
        code = main(
            ["run", "--topology", "clique", "--size", "4", "--mrai", "1",
             "--seed", "1", "--sanitize"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence time" in out

    def test_parallel_runs_identical_to_in_parent_baseline(self, capsys):
        code = main(
            ["determinism", "--size", "3", "--mrai", "1",
             "--runs", "3", "--jobs", "2"]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out


class TestMetricsCommand:
    def test_traced_run_prints_telemetry_table(self, capsys):
        code = main(["run", "--metrics", "--size", "4", "--mrai", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence time" in out
        assert out.index("convergence time") < out.index("telemetry:")
        assert "engine.events_executed" in out
        assert "net.messages_sent.Announcement" in out
        assert "timeline :" in out
        assert "harness wall-clock:" in out
        assert "simulate" in out

    def test_exports_validate_and_land_on_disk(self, capsys, tmp_path):
        import json

        from repro.telemetry import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "timeline.jsonl"
        code = main(
            ["run", "--metrics", "--size", "4", "--mrai", "1",
             "--chrome-trace", str(trace_path), "--jsonl", str(jsonl_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "schema-validated" in out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        for line in jsonl_path.read_text().splitlines():
            assert "time" in json.loads(line)

    def test_export_without_metrics_is_an_error(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["run", "--size", "4", "--mrai", "1",
             "--chrome-trace", str(trace_path)]
        )
        assert code == 2
        assert "--metrics" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_traced_run_honours_the_session_layer(self, capsys):
        code = main(
            ["run", "--metrics", "--size", "4", "--mrai", "1", "--sessions"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "net.messages_sent.Keepalive" in out

    def test_figure_metrics_flag_prints_aggregate(self, capsys):
        code = main(["figure", "fig4a", "--quick", "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregated telemetry (all trials):" in out
        assert "engine.events_executed" in out

    def test_determinism_metrics_flag_proves_inertness(self, capsys):
        code = main(
            ["determinism", "--size", "3", "--mrai", "1", "--metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL" in out
        assert "telemetry on/off digests MATCH" in out


class TestJobsFlag:
    def test_quick_figure_with_jobs(self, capsys):
        code = main(["figure", "fig4a", "--quick", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4a" in out

    def test_driver_without_jobs_support_still_runs(self, capsys):
        # The theory figure has no sweep to parallelize; --jobs is noted
        # on stderr and ignored rather than crashing the driver.
        code = main(["figure", "theory", "--quick", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "--jobs" in captured.err


class TestSweepCommand:
    def test_basic_sweep_prints_journal_and_table(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep", "--sizes", "3", "--trials", "1",
                "--mrai", "1.0", "--journal", str(journal),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "journal:" in out
        assert "size" in out and "ok" in out
        assert journal.exists()

    def test_resume_reuses_journaled_trials(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert main(
            [
                "sweep", "--sizes", "3", "--trials", "1",
                "--mrai", "1.0", "--journal", str(journal),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "sweep", "--sizes", "3,4", "--trials", "1",
                "--mrai", "1.0", "--journal", str(journal),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The x=3 trial came back from the journal, not a re-run.
        assert "journal: 1 trial record(s) loaded" in out

    def test_sweep_with_resilience_flags_reports_supervision(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep", "--sizes", "3", "--trials", "1", "--mrai", "1.0",
                "--journal", str(journal), "--jobs", "2",
                "--retries", "1", "--trial-timeout", "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resilience:" in out

    def test_bad_sizes_rejected(self, tmp_path, capsys):
        code = main(
            ["sweep", "--sizes", ",", "--journal", str(tmp_path / "j.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestResilienceFlags:
    def test_figure_accepts_retries(self, capsys):
        code = main(
            ["figure", "fig4a", "--quick", "--jobs", "2", "--retries", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4a" in out

    def test_theory_notes_ignored_resilience_flags(self, capsys):
        code = main(["figure", "theory", "--quick", "--retries", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "--retries" in captured.err

    def test_determinism_with_policy(self, capsys):
        code = main(
            [
                "determinism", "--size", "3", "--runs", "3",
                "--jobs", "2", "--retries", "1",
            ]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out
