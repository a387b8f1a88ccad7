"""Tests for the dual-run determinism harness."""

from __future__ import annotations

import pytest

from repro.analysis import check_determinism
from repro.analysis.determinism import DeterminismReport, RunFingerprint
from repro.bgp import variant
from repro.errors import AnalysisError
from repro.experiments import RunSettings, tdown_clique


def fast_settings(**kwargs) -> RunSettings:
    return RunSettings(**kwargs)


class TestCheckDeterminism:
    def test_same_seed_is_bit_for_bit_identical(self):
        report = check_determinism(
            tdown_clique(4), variant("standard", mrai=1.0), seed=5
        )
        assert report.identical
        assert len(report.fingerprints) == 2
        assert report.fingerprints[0].digest == report.fingerprints[1].digest
        assert report.first_divergence() is None
        assert "IDENTICAL" in report.render()

    def test_identical_under_sanitizers(self):
        report = check_determinism(
            tdown_clique(4),
            variant("standard", mrai=1.0),
            settings=RunSettings(sanitize=True),
            seed=5,
        )
        assert report.identical

    def test_sanitizers_do_not_change_the_digest(self):
        scenario = tdown_clique(4)
        config = variant("standard", mrai=1.0)
        plain = check_determinism(scenario, config, seed=5)
        sanitized = check_determinism(
            scenario, config, settings=RunSettings(sanitize=True), seed=5
        )
        assert plain.digest == sanitized.digest

    def test_different_seeds_give_different_digests(self):
        scenario = tdown_clique(4)
        config = variant("standard", mrai=1.0)
        a = check_determinism(scenario, config, seed=1)
        b = check_determinism(scenario, config, seed=2)
        assert a.digest != b.digest

    def test_triple_run(self):
        report = check_determinism(
            tdown_clique(3), variant("standard", mrai=1.0), seed=0, runs=3
        )
        assert report.identical
        assert len(report.fingerprints) == 3

    def test_fewer_than_two_runs_rejected(self):
        with pytest.raises(AnalysisError, match=">= 2 runs"):
            check_determinism(
                tdown_clique(3), variant("standard", mrai=1.0), runs=1
            )

    def test_worker_repetitions_match_the_in_process_baseline(self):
        """jobs > 1: run 0 executes here, the rest in sweep workers."""
        scenario = tdown_clique(4)
        config = variant("standard", mrai=1.0)
        report = check_determinism(scenario, config, seed=5, runs=3, jobs=2)
        assert report.identical and len(report.fingerprints) == 3
        assert report.digest == check_determinism(scenario, config, seed=5).digest

    def test_jobs_zero_means_one_per_cpu(self):
        report = check_determinism(
            tdown_clique(3), variant("standard", mrai=1.0), jobs=0
        )
        assert report.identical

    @pytest.mark.parametrize("jobs", [True, 1.5, -1])
    def test_bad_jobs_rejected_the_way_sweep_rejects_them(self, jobs):
        with pytest.raises(AnalysisError, match="jobs must be"):
            check_determinism(
                tdown_clique(3), variant("standard", mrai=1.0), jobs=jobs
            )

    def test_fingerprint_counts_artifacts(self):
        report = check_determinism(
            tdown_clique(4), variant("standard", mrai=1.0), seed=5
        )
        fp = report.fingerprints[0]
        assert fp.messages > 0
        assert fp.fib_changes > 0
        assert fp.summary_line


class TestDivergenceReporting:
    @staticmethod
    def _fingerprint(digest, trace, summary="m=1"):
        return RunFingerprint(
            digest=digest,
            trace_lines=tuple(trace),
            fib_lines=(),
            summary_line=summary,
        )

    def test_first_divergence_pinpoints_trace_record(self):
        report = DeterminismReport(
            scenario_name="synthetic",
            seed=0,
            fingerprints=(
                self._fingerprint("aaa", ["r0", "r1", "r2"]),
                self._fingerprint("bbb", ["r0", "rX", "r2"]),
            ),
        )
        assert not report.identical
        divergence = report.first_divergence()
        assert "trace[1]" in divergence
        assert "rX" in divergence
        assert "DIVERGED" in report.render()

    def test_length_divergence_reported(self):
        report = DeterminismReport(
            scenario_name="synthetic",
            seed=0,
            fingerprints=(
                self._fingerprint("aaa", ["r0", "r1"]),
                self._fingerprint("bbb", ["r0", "r1", "r2"]),
            ),
        )
        assert "length" in report.first_divergence()

    def test_diverged_report_has_no_common_digest(self):
        report = DeterminismReport(
            scenario_name="synthetic",
            seed=0,
            fingerprints=(
                self._fingerprint("aaa", ["r0"]),
                self._fingerprint("bbb", ["r1"]),
            ),
        )
        with pytest.raises(AnalysisError, match="diverged"):
            report.digest
