"""Multi-prefix workloads: golden equivalence, Tagg runs, determinism.

Three contracts pin the prefix dimension as a *strict generalization*:

* an N=1 multi-prefix run (explicit ``originations``) is bit-identical —
  same trace/FIB/summary digest — to the legacy single-destination path;
* a multi-prefix Tagg sweep with the traffic matrix on is digest-identical
  under ``jobs=1`` and ``jobs=4``, and across repeat runs;
* the incremental decision cache agrees with the naive full scan at every
  speaker after multi-prefix aggregation churn.
"""

import pytest

from repro.analysis.determinism import fingerprint_run
from repro.bgp import BgpConfig
from repro.bgp.aggregation import AggregationCycle
from repro.errors import ConfigError
from repro.experiments import RunSettings, factory_ref, sweep
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    Scenario,
    clique_tagg_trial,
    tagg_clique,
    tdown_clique,
    tflap_bclique,
    with_explicit_originations,
)
from repro.experiments.spec import constant_config
from repro.topology import clique

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
TRAFFIC = RunSettings(failure_guard=0.5, traffic_matrix=True)
JOBS = 4


def digest_of(scenario, config=FAST, settings=SETTINGS, seed=0):
    run = run_experiment(
        scenario, config, settings=settings, seed=seed, keep_network=True
    )
    return fingerprint_run(run).digest


class TestGoldenEquivalence:
    """Explicit N=1 originations reproduce the legacy digest bit-for-bit."""

    def test_tdown_digest_identical(self):
        legacy = tdown_clique(5)
        multi = with_explicit_originations(legacy)
        assert multi.effective_originations == legacy.effective_originations
        assert digest_of(legacy) == digest_of(multi)

    def test_tflap_digest_identical(self):
        legacy = tflap_bclique(4, period=3.0, count=2)
        multi = with_explicit_originations(legacy)
        assert digest_of(legacy) == digest_of(multi)

    def test_legacy_summary_has_no_traffic_keys(self):
        run = run_experiment(tdown_clique(4), FAST, SETTINGS, seed=0)
        keys = set(run.result.summary_row())
        assert not any(k.startswith("traffic_") for k in keys)


class TestScenarioValidation:
    def test_tagg_requires_blocks(self):
        with pytest.raises(ConfigError, match="at least one aggregate block"):
            AggregationCycle((), at=0.0, hold=5.0)

    def test_origination_nodes_must_exist(self):
        with pytest.raises(ConfigError):
            Scenario(
                name="bad",
                topology=clique(3),
                destination=0,
                originations=((9, "dest"),),
            )

    def test_focus_pair_must_be_originated(self):
        with pytest.raises(ConfigError):
            Scenario(
                name="bad",
                topology=clique(3),
                destination=0,
                prefix="dest",
                originations=((1, "other"),),
            )

    def test_tagg_family_is_well_formed(self):
        scenario = tagg_clique(4, prefixes=8, origins=2, seed=1)
        assert len(scenario.effective_originations) == 8
        assert len(scenario.agg_blocks) == 2
        origins = {block.origin for block in scenario.agg_blocks}
        assert origins <= {0, 1}
        # Focus pair: first block's first specific at its origin.
        assert (scenario.destination, scenario.prefix) in (
            scenario.effective_originations
        )
        by_prefix = scenario.origins_by_prefix()
        for node, prefix in scenario.effective_originations:
            assert node in by_prefix[prefix]


class TestTaggRun:
    @pytest.fixture(scope="class")
    def run(self):
        return run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            FAST,
            TRAFFIC,
            seed=0,
            keep_network=True,
        )

    def test_converges_and_reports_traffic(self, run):
        assert run.converged
        traffic = run.result.traffic
        assert traffic is not None
        assert traffic.offered > 0
        assert (
            traffic.delivered + traffic.blackholed + traffic.looped
            == traffic.offered
        )

    def test_summary_gains_traffic_keys(self, run):
        row = run.result.summary_row()
        assert "traffic_looped_fraction" in row
        assert "traffic_offered" in row
        assert row["traffic_looped_fraction"] == pytest.approx(
            run.result.traffic.looped_fraction
        )

    def test_aggregation_round_trips_origins(self, run):
        # After deaggregation the origins hold exactly the steady-state
        # specifics again — no cover left behind.
        for block in run.scenario.agg_blocks:
            speaker = run.network.nodes[block.origin]
            assert block.cover not in speaker.origins
            for specific in block.specifics:
                assert specific in speaker.origins

    def test_repeat_run_digest_identical(self, run):
        again = run_experiment(
            run.scenario, FAST, TRAFFIC, seed=0, keep_network=True
        )
        assert fingerprint_run(again).digest == fingerprint_run(run).digest


class TestCrossProcessDeterminism:
    """jobs=1 and jobs=4 Tagg sweeps must be digest-identical."""

    @pytest.fixture(scope="class")
    def pair(self):
        make_scenario = factory_ref(
            clique_tagg_trial, size=4, origins=2, hold=5.0
        )
        make_config = factory_ref(constant_config, config=FAST)
        kwargs = dict(seeds=(0, 1), settings=TRAFFIC, digests=True)
        sequential = sweep([4, 8], make_scenario, make_config, **kwargs)
        parallel = sweep(
            [4, 8], make_scenario, make_config, jobs=JOBS, **kwargs
        )
        return sequential, parallel

    def test_digests_identical(self, pair):
        sequential, parallel = pair
        seq = [r.fingerprint.digest for p in sequential for r in p.runs]
        par = [r.fingerprint.digest for p in parallel for r in p.runs]
        assert seq == par
        assert len(seq) == 4

    def test_traffic_metrics_in_summary_lines(self, pair):
        sequential, _ = pair
        line = sequential[0].runs[0].fingerprint.summary_line
        assert "traffic_looped_fraction=" in line

    def test_aggregate_metrics_identical(self, pair):
        sequential, parallel = pair
        assert [p.metrics() for p in sequential] == [
            p.metrics() for p in parallel
        ]


class TestAcceptance256:
    """The acceptance bar: >= 256 prefixes, bit-identical across jobs."""

    def test_256_prefix_sweep_digest_identical_across_jobs(self):
        make_scenario = factory_ref(
            clique_tagg_trial, size=4, origins=2, hold=5.0
        )
        make_config = factory_ref(constant_config, config=FAST)
        kwargs = dict(seeds=(0,), settings=TRAFFIC, digests=True)
        sequential = sweep([256], make_scenario, make_config, **kwargs)
        parallel = sweep(
            [256], make_scenario, make_config, jobs=JOBS, **kwargs
        )
        seq_run = sequential[0].runs[0]
        par_run = parallel[0].runs[0]
        assert seq_run.fingerprint.digest == par_run.fingerprint.digest
        assert "traffic_looped_fraction=" in seq_run.fingerprint.summary_line
        # Repeat the sequential sweep: byte-identical again.
        again = sweep([256], make_scenario, make_config, **kwargs)
        assert again[0].runs[0].fingerprint.digest == seq_run.fingerprint.digest


class TestDecisionCacheUnderMultiPrefixChurn:
    def test_cache_matches_naive_after_tagg(self):
        # sanitize=True cross-checks cached-vs-naive at every decision
        # during the run (RibCoherenceSanitizer); the sweep below then
        # re-verifies the final state for every (speaker, prefix).
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0, seed=2),
            FAST,
            RunSettings(failure_guard=0.5, sanitize=True),
            seed=0,
            keep_network=True,
        )
        assert run.converged
        network = run.network
        scenario = run.scenario
        prefixes = {prefix for _node, prefix in scenario.effective_originations}
        prefixes.update(block.cover for block in scenario.agg_blocks)
        for node_id in sorted(network.nodes):
            speaker = network.nodes[node_id]
            for prefix in sorted(prefixes):
                assert speaker._select_best(prefix) == (
                    speaker._select_best_naive(prefix)
                )
            speaker.check_invariants()
