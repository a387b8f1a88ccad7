"""Clock-free guards on the data-plane pass's *work*.

The post-run evaluators are O(FIB changes), not O(epochs × sources): they
re-walk only the origins a change can reach and resolve LPM once per (node,
covered destination).  CI cannot time anything, so the property is pinned
from the counters the pass reports about itself — on the paper's own Tdown
scenarios the naive evaluation (every source, every epoch) must be at least
twice the walks performed, the loop timeline scans the graph once, and a Tagg
run resolves at most twice per FIB change (the per-step design read 4.3)
without one call into an LPM index: its destinations are static, so covering
chains replace the per-node radix tries.
"""

import pytest

from repro.bgp import BgpConfig
from repro.core import loop_detector
from repro.dataplane import MultiPrefixFib, TrafficMatrixEvaluator
from repro.experiments import RunSettings, run_experiment, tdown_clique, tdown_internet
from repro.experiments.scenarios import tagg_clique
from repro.prefixes import RadixTrie

TRACED = RunSettings(telemetry=True)


@pytest.mark.parametrize(
    "scenario", [tdown_internet(48, seed=0), tdown_clique(12)], ids=lambda s: s.name
)
def test_tdown_walks_at_most_half_of_epochs_times_sources(scenario, monkeypatch):
    scans = []
    find_loops = loop_detector.find_loops
    monkeypatch.setattr(
        loop_detector, "find_loops", lambda graph: scans.append(1) or find_loops(graph)
    )
    run = run_experiment(scenario, BgpConfig(), TRACED, seed=0)
    snap = run.metrics
    sources = len(scenario.topology.nodes) - 1
    epochs = snap.counter("dataplane.change_instants")
    walks = snap.counter("dataplane.walks")
    assert epochs > 20 and run.result.dataplane.packets_sent > 0
    assert sources <= walks <= epochs * sources / 2
    # Useful over attempted: every walk past the first classification was
    # forced by a change that reached its origin.
    assert snap.counter("dataplane.walks_invalidated") == walks - sources
    assert snap.counter("dataplane.lpm_resolves") == 0
    assert len(scans) == 1  # loop_timeline: one whole-graph scan, at start


def test_tagg_resolves_at_most_twice_per_fib_change():
    scenario = tagg_clique(4, prefixes=64, origins=2, hold=5.0, seed=0)
    config = BgpConfig(mrai=2.0, mrai_mode="per-peer", batch_updates=True)
    settings = RunSettings(
        telemetry=True, traffic_matrix=True, traffic_epoch_rows=False
    )
    run = run_experiment(scenario, config, settings, seed=0)
    snap = run.metrics
    resolves = snap.counter("dataplane.lpm_resolves")
    assert run.result.traffic.offered > 0
    assert 0 < resolves <= 2 * snap.counter("dataplane.fib_changes")


LPM_INDEX_CALLS = [
    (RadixTrie, "insert"),
    (RadixTrie, "remove"),
    (RadixTrie, "lookup"),
    (RadixTrie, "covered"),
    (MultiPrefixFib, "set_entry"),
    (MultiPrefixFib, "resolve"),
]


def test_tagg_traffic_evaluation_makes_no_lpm_index_call(monkeypatch):
    """Replaying the FIB log into per-node tries cost thousands of these
    calls on this run; chain resolution makes none, and resolves exactly as
    often as the trie-backed evaluator did."""
    evaluating, calls = [False], []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            if evaluating[0]:
                calls.append(f"{cls.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in LPM_INDEX_CALLS:
        count(cls, name)
    evaluate = TrafficMatrixEvaluator.evaluate

    def watched(self, start, end):
        evaluating[0] = True
        try:
            return evaluate(self, start, end)
        finally:
            evaluating[0] = False

    monkeypatch.setattr(TrafficMatrixEvaluator, "evaluate", watched)
    scenario = tagg_clique(4, prefixes=64, origins=2, hold=5.0, seed=0)
    config = BgpConfig(mrai=2.0, mrai_mode="per-peer", batch_updates=True)
    settings = RunSettings(telemetry=True, traffic_matrix=True)
    run = run_experiment(scenario, config, settings, seed=0)
    assert run.result.traffic.offered > 0
    assert calls == []
    assert run.metrics.counter("dataplane.lpm_resolves") == 1846
