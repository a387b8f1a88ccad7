"""Integration tests asserting the paper's qualitative findings at small
scale (``repro figure <id>`` reruns the full-size reproductions and checks
them against ``benchmarks/results/``)."""

from repro.bgp import BgpConfig, variant
from repro.core import check_linear_in_mrai, check_ratio_constant
from repro.experiments import (
    RunSettings,
    run_experiment,
    tdown_clique,
    tdown_internet,
    tlong_bclique,
)
from repro.util import linear_fit, mean

SETTINGS = RunSettings(failure_guard=0.5)
PROC = (0.05, 0.15)  # scaled-down processing delay for fast tests


def tdown_metrics(n, mrai, seeds=(0, 1)):
    results = [
        run_experiment(
            tdown_clique(n),
            BgpConfig(mrai=mrai, processing_delay=PROC),
            settings=SETTINGS,
            seed=s,
        ).result
        for s in seeds
    ]
    return results


class TestObservation1:
    """Looping duration ~ convergence time, both linear in MRAI."""

    def test_looping_spans_most_of_tdown_convergence(self):
        for result in tdown_metrics(6, mrai=2.0):
            assert result.overall_looping_duration > 0.5 * result.convergence_time

    def test_looping_never_exceeds_convergence(self):
        # Slack of 0.5 s covers the TTL-death flight offset (ttl × hop delay)
        # added to exhaustion timestamps.
        for result in tdown_metrics(6, mrai=2.0):
            assert result.overall_looping_duration <= result.convergence_time + 0.5

    def test_convergence_time_linear_in_mrai(self):
        mrais = [1.0, 2.0, 4.0, 6.0]
        conv = [
            mean([r.convergence_time for r in tdown_metrics(6, m)]) for m in mrais
        ]
        check = check_linear_in_mrai(mrais, conv)
        assert check.holds, check.detail

    def test_looping_duration_linear_in_mrai(self):
        mrais = [1.0, 2.0, 4.0, 6.0]
        dur = [
            mean([r.overall_looping_duration for r in tdown_metrics(6, m)])
            for m in mrais
        ]
        check = check_linear_in_mrai(mrais, dur)
        assert check.holds, check.detail


class TestObservation2:
    """TTL exhaustions linear in MRAI; looping ratio roughly constant."""

    def test_exhaustions_grow_with_mrai(self):
        mrais = [1.0, 2.0, 4.0, 6.0]
        exh = [
            mean([float(r.ttl_exhaustions) for r in tdown_metrics(6, m)])
            for m in mrais
        ]
        fit = linear_fit(mrais, exh)
        assert fit.slope > 0
        assert fit.r_squared >= 0.85, (exh, fit)

    def test_looping_ratio_stays_in_band(self):
        mrais = [1.0, 2.0, 4.0, 6.0]
        ratios = [
            mean([r.looping_ratio for r in tdown_metrics(6, m)]) for m in mrais
        ]
        check = check_ratio_constant(ratios, max_cv=0.35)
        assert check.holds, check.detail


class TestObservation3:
    """Assertion & Ghost Flushing effective; SSLD never regresses."""

    def run_variant(self, name, n=6):
        config = variant(name, mrai=2.0)
        config = BgpConfig(
            mrai=2.0,
            processing_delay=PROC,
            ssld=config.ssld,
            wrate=config.wrate,
            assertion=config.assertion,
            ghost_flushing=config.ghost_flushing,
        )
        results = [
            run_experiment(tdown_clique(n), config, settings=SETTINGS, seed=s).result
            for s in (0, 1)
        ]
        return mean([float(r.ttl_exhaustions) for r in results]), mean(
            [r.convergence_time for r in results]
        )

    def test_assertion_and_ghost_flushing_cut_looping(self):
        base_exh, base_conv = self.run_variant("standard")
        for name in ("assertion", "ghost-flushing"):
            exh, conv = self.run_variant(name)
            assert exh < 0.5 * base_exh, (name, exh, base_exh)
            assert conv < base_conv, (name, conv, base_conv)

    def test_ssld_does_not_regress(self):
        base_exh, base_conv = self.run_variant("standard")
        exh, conv = self.run_variant("ssld")
        assert exh <= base_exh * 1.05
        assert conv <= base_conv * 1.05


class TestTlongGap:
    """Figure 4b: Tlong looping duration trails convergence by ~ one MRAI
    round (the final update is MRAI-delayed but triggers no change)."""

    def test_gap_positive_and_bounded(self):
        mrai = 2.0
        gaps = []
        for seed in (0, 1, 2):
            result = run_experiment(
                tlong_bclique(5),
                BgpConfig(mrai=mrai, processing_delay=PROC),
                settings=SETTINGS,
                seed=seed,
            ).result
            gaps.append(result.convergence_time - result.overall_looping_duration)
        assert mean(gaps) > 0
        assert mean(gaps) < 8 * mrai


class TestInternetTdown:
    def test_high_looping_ratio_on_internet_graph(self):
        # MRAI must dominate the processing delay for the paper's high
        # looping ratios to appear (at the paper's 30 s MRAI the measured
        # ratio reaches ~0.86; see EXPERIMENTS.md).  5 s keeps the test fast
        # while preserving the dominance.
        result = run_experiment(
            tdown_internet(29, seed=0),
            BgpConfig(mrai=5.0, processing_delay=PROC),
            settings=SETTINGS,
            seed=0,
        ).result
        assert result.looping_ratio > 0.3
        assert result.overall_looping_duration > 0.5 * result.convergence_time
