"""Pinned work: how many times the decision process runs, not only what it
answers.

The speaker decides once per decision key — a prefix's Adj-RIB-In state
group, whether it is originated, and (with damping) its suppressed
candidates — within one UPDATE's decision pass.  These pins count
``DecisionProcess.select`` calls on one run each, so a silent return to
deciding every prefix separately fails here, not only in the benchmark.
Deciding per prefix, the Tagg run made 747 calls; the single-prefix run
is the N = 1 case and makes the same 71 either way.
"""

import pytest

from repro.bgp import BgpConfig
from repro.bgp.decision import DecisionProcess
from repro.experiments import run_experiment, tdown_clique
from repro.experiments.scenarios import tagg_clique

CONFIG = BgpConfig(mrai_mode="per-peer", batch_updates=True)


@pytest.fixture
def select_calls(monkeypatch):
    calls = []
    select = DecisionProcess.select

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return select(self, *args, **kwargs)

    monkeypatch.setattr(DecisionProcess, "select", counted)
    return calls


def test_a_tagg_population_decides_once_per_state_group(select_calls):
    run_experiment(tagg_clique(4, prefixes=32, hold=10.0), CONFIG, seed=0)
    assert len(select_calls) == 91


def test_a_single_prefix_run_decides_once_per_update(select_calls):
    run_experiment(tdown_clique(5), CONFIG, seed=0)
    assert len(select_calls) == 71
