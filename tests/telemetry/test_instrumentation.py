"""Integration: a traced run produces coherent metrics, an enriched
timeline, and — the core contract — a fingerprint bit-identical to the
untraced run."""

from collections import Counter

import pytest

from repro.analysis import fingerprint_run
from repro.bgp import BgpConfig
from repro.experiments import RunSettings, run_experiment, tdown_clique

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
TRACED = RunSettings(failure_guard=0.5, telemetry=True, timeline=True)


@pytest.fixture(scope="module")
def traced_run():
    return run_experiment(tdown_clique(4), FAST, TRACED, seed=0, keep_network=True)


class TestDigestInertness:
    def test_fingerprint_identical_with_telemetry_off(self, traced_run):
        plain = run_experiment(
            tdown_clique(4), FAST, SETTINGS, seed=0, keep_network=True
        )
        assert plain.metrics is None and plain.timeline is None
        assert fingerprint_run(traced_run).digest == fingerprint_run(plain).digest


class TestMetricsCoherence:
    def test_counts_cross_check_against_the_trace(self, traced_run):
        snap = traced_run.metrics
        trace = traced_run.network.trace
        # The live per-kind counters and the trace's records are two
        # independent measurements of the same sends.
        kinds = Counter(record.kind for record in trace)
        assert kinds
        for kind, total in kinds.items():
            assert snap.counter(f"net.messages_sent.{kind}") == total
        assert not any(name.startswith("trace.") for name in snap.counters)

    def test_engine_counters_plausible(self, traced_run):
        snap = traced_run.metrics
        executed = snap.counter("engine.events_executed")
        scheduled = snap.counter("engine.events_scheduled")
        assert 0 < executed <= scheduled
        assert snap.gauges["engine.heap_depth"].high_water > 0

    def test_dataplane_counters_match_result(self, traced_run):
        snap = traced_run.metrics
        result = traced_run.result
        assert snap.counter("dataplane.loops_entered") == len(result.loop_intervals)
        assert (
            snap.counter("dataplane.ttl_exhaustions") == result.ttl_exhaustions
        )
        assert (
            snap.counter("dataplane.packets_sent")
            == result.dataplane.packets_sent
        )

    def test_dataplane_pass_reports_its_own_work(self, traced_run):
        snap = traced_run.metrics
        sources = len(traced_run.scenario.topology.nodes) - 1
        walks = snap.counter("dataplane.walks")
        instants = snap.counter("dataplane.change_instants")
        # Useful over attempted: one walk per source at the window's start,
        # every other one because a FIB change reached that source — far
        # fewer than the naive "every source at every instant".
        assert snap.counter("dataplane.walks_invalidated") == walks - sources
        assert 0 < walks < instants * sources
        assert snap.counter("dataplane.lpm_resolves") == 0  # no traffic matrix

    def test_bgp_activity_recorded(self, traced_run):
        snap = traced_run.metrics
        assert snap.counter("bgp.decision_runs") > 0
        assert snap.counter("bgp.mrai_expiries") > 0
        assert snap.counter("dataplane.fib_changes") > 0


class TestTimelineEnrichment:
    def test_phase_spans_bracket_the_run(self, traced_run):
        phases = {r.name: r for r in traced_run.timeline.records("phase")}
        assert set(phases) == {"warm-up", "failure", "post-failure"}
        assert phases["warm-up"].time == 0.0
        assert phases["warm-up"].end == traced_run.warmup_time
        assert phases["failure"].time == traced_run.failure_time
        assert phases["post-failure"].end == traced_run.end_time

    def test_one_span_per_loop_interval(self, traced_run):
        loops = traced_run.timeline.records("loop")
        assert len(loops) == len(traced_run.result.loop_intervals)
        for record, interval in zip(loops, traced_run.result.loop_intervals):
            assert record.time == interval.start
            assert record.end == interval.end
            assert record.name.startswith("loop[")

    def test_dense_categories_present(self, traced_run):
        categories = traced_run.timeline.categories()
        assert "bgp" in categories  # MRAI expiries
        assert "dataplane" in categories  # FIB changes

    def test_chrome_export_validates(self, traced_run):
        from repro.telemetry import validate_chrome_trace

        payload = traced_run.timeline.to_chrome_trace()
        assert validate_chrome_trace(payload) == len(
            payload["traceEvents"]
        ) > 0
