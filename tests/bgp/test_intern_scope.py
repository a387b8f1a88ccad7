"""The intern tables live as long as one simulation.

``interning_scope`` pops, on exit, exactly the AsPath and Route entries its
run added; ``run_experiment`` and ``observe_oscillation`` each run inside
one.  A process that runs trial after trial (a figure, a pool worker, the
daemon) therefore holds only the paths and routes of the run in progress,
while inside a run the canonical instances and the identity fast path are
what they always were.
"""

import pytest

from repro.bgp import (
    AsPath,
    BgpConfig,
    Route,
    interning_scope,
    route_intern_table_size,
)
from repro.bgp.path import intern_table_size
from repro.experiments import (
    RunSettings,
    TrialTask,
    internet_tdown_trial,
    observe_oscillation,
    run_experiment,
    tdown_clique,
    tdown_internet,
)
from repro.experiments.scenarios import DEFAULT_PREFIX
from repro.experiments.sweep import TrialRunner
from repro.experiments.unsafe import disagree

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)


def table_sizes():
    return intern_table_size(), route_intern_table_size()


def best_paths(network):
    """Every node's best stored path to the studied prefix, by node."""
    paths = {}
    for node_id, node in network.nodes.items():
        route = node.loc_rib.get(DEFAULT_PREFIX)
        if route is not None:
            paths[node_id] = route.path
    return paths


@pytest.mark.parametrize(
    "make_scenario",
    [lambda seed: tdown_internet(29, seed=seed), lambda seed: tdown_clique(6)],
    ids=["tdown_internet_29", "tdown_clique_6"],
)
def test_consecutive_runs_leave_the_tables_as_they_found_them(make_scenario):
    before = table_sizes()
    for seed in range(20):
        run_experiment(make_scenario(seed), FAST, SETTINGS, seed=seed)
        assert table_sizes() == before, f"after seed {seed}"


def test_a_run_keeps_the_identity_fast_path():
    seen = []

    def inside(network, _failure_time):
        paths = best_paths(network)
        assert paths
        for path in paths.values():
            assert AsPath.of(path.ases) is path
        fresh = (90_001, 90_002)
        assert AsPath.of(fresh) is AsPath.of(fresh)
        seen.append(len(paths))

    run_experiment(tdown_clique(5), FAST, SETTINGS, on_network_ready=inside)
    assert seen


def test_a_kept_path_equals_the_next_runs_canonical_path():
    kept = {}
    run_experiment(
        tdown_clique(5),
        FAST,
        SETTINGS,
        seed=1,
        on_network_ready=lambda network, _t: kept.update(best_paths(network)),
    )
    assert any(kept.values())
    checked = []

    def compare(_network, _failure_time):
        for path in kept.values():
            canonical = AsPath.of(path.ases)
            assert canonical == path
            assert hash(canonical) == hash(path)
        checked.append(True)

    run_experiment(tdown_clique(5), FAST, SETTINGS, seed=2, on_network_ready=compare)
    assert checked


def test_telemetry_reports_what_the_run_interned():
    before = table_sizes()
    at_failure = []
    # A fresh graph: its paths are new even after tests that intern
    # clique paths outside any scope.
    run = run_experiment(
        tdown_internet(40, seed=7101),
        FAST,
        RunSettings(failure_guard=0.5, telemetry=True),
        on_network_ready=lambda _network, _t: at_failure.append(table_sizes()),
    )
    paths, routes = (n - b for n, b in zip(at_failure[0], before))
    assert 0 < paths <= run.metrics.counter("bgp.paths_interned")
    assert 0 < routes <= run.metrics.counter("bgp.routes_interned")
    assert table_sizes() == before


def test_values_interned_before_a_scope_stay_canonical():
    outer_path = AsPath.of((91_001, 91_002))
    outer_route = Route.of("outer", outer_path, 91_001)
    with interning_scope():
        assert AsPath.of((91_001, 91_002)) is outer_path
        assert Route.of("outer", outer_path, 91_001) is outer_route
        AsPath.of((91_003, 91_001, 91_002))
    assert AsPath.of((91_001, 91_002)) is outer_path
    assert Route.of("outer", outer_path, 91_001) is outer_route


def test_a_scope_left_by_an_exception_still_trims():
    before = table_sizes()
    with pytest.raises(RuntimeError):
        with interning_scope():
            Route.of("raised", AsPath.of((92_001, 92_002)), 92_001)
            assert table_sizes() > before
            raise RuntimeError("abandon the run")
    assert table_sizes() == before


def test_nested_scopes_unwind_lifo():
    before = table_sizes()
    with interning_scope():
        outer = AsPath.of((93_001,))
        middle = table_sizes()
        with interning_scope():
            assert AsPath.of((93_001,)) is outer
            AsPath.of((93_002,))
            Route.of("inner", AsPath.of((93_003,)), 93_003)
        assert table_sizes() == middle
        assert AsPath.of((93_001,)) is outer
    assert table_sizes() == before


def test_observe_oscillation_leaves_the_tables_unchanged():
    before = table_sizes()
    observe_oscillation(disagree(), config=FAST, seed=0)
    assert table_sizes() == before


def test_a_parallel_sweep_leaves_the_callers_tables_unchanged():
    before = table_sizes()
    # Fresh graphs, so the results carry paths no earlier test interned.
    runs, _report = TrialRunner(2).run(
        [
            TrialTask(x, seed, internet_tdown_trial, FAST, SETTINGS)
            for x in (30, 40)
            for seed in (7001, 7002)
        ]
    )
    assert table_sizes() == before
    # The results did bring paths home: the parent unpickled them by value.
    assert any(change.new_path for run in runs for change in run.route_log)
