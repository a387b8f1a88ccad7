"""The event model: a scenario is topology + originations + one schedule.

Contracts pinned here:

* a composite injector is digest-identical to the schedule of primitives it
  expands to (a ``LinkFlap`` vs its ``LinkFailure``/``LinkRestore`` pairs;
  ``AggregationCycle`` has no primitives to expand into);
* compound schedules — a Tlong during a Tdown, a flap under an aggregation
  cycle — run sanitized, converge, and are digest-identical under
  ``sweep(jobs=1)`` and ``sweep(jobs=2)``;
* every family's scenario survives a pickle round trip;
* each cross-field check lives on the injector it constrains and still
  raises :class:`~repro.errors.ConfigError`;
* session timers and the report follow the schedule.
"""

import pickle
from dataclasses import replace
from functools import partial

import pytest

from repro.analysis.determinism import fingerprint_run
from repro.bgp import BgpConfig
from repro.bgp.aggregation import AggregationCycle
from repro.errors import ConfigError
from repro.experiments import (
    EventKind,
    RunSettings,
    Scenario,
    constant_config,
    run_experiment,
    with_session_timers,
)
from repro.experiments.report import describe_run
from repro.experiments.scenarios import (
    custom_tdown,
    custom_tlong,
    tagg_clique,
    tcrash_clique,
    tdown_clique,
    tdown_internet,
    tflap_bclique,
    tlong_bclique,
    tlong_internet,
    treset_clique,
)
from repro.experiments.unsafe import bad_gadget, disagree, wedgie
from repro.net import (
    LinkFailure,
    LinkFlap,
    LinkRestore,
    NodeCrash,
    OriginWithdrawal,
    SessionReset,
)
from repro.topology import b_clique, chain, clique
from sweep_outcomes import sweep_outcomes

MRAI = 1.0
FAST = BgpConfig(mrai=MRAI, processing_delay=(0.01, 0.05))
SESSIONS = with_session_timers(FAST)
SETTINGS = RunSettings(failure_guard=0.5)
SANITIZED = RunSettings(failure_guard=0.5, sanitize=True)


def digest_of(scenario, config=FAST, settings=SETTINGS, seed=0):
    run = run_experiment(
        scenario, config, settings=settings, seed=seed, keep_network=True
    )
    return fingerprint_run(run).digest


def tlong_during_tdown(x: float, seed: int) -> Scenario:
    """B-Clique of size x: the edge-to-core link fails, and half an MRAI
    later the destination withdraws."""
    n = int(x)
    return Scenario(
        name=f"tlong-tdown-bclique-{n}",
        topology=b_clique(n),
        destination=0,
        events=(
            LinkFailure(0, n, at=0.0),
            OriginWithdrawal(0, "dest", at=MRAI / 2),
        ),
    )


def flap_under_tagg(x: float, seed: int) -> Scenario:
    """A 4-clique Tagg cycle of x prefixes with a link flapping twice
    inside the aggregation hold."""
    base = tagg_clique(4, prefixes=int(x), seed=seed, origins=2, hold=5.0)
    return replace(
        base,
        name=f"{base.name}-flap",
        events=base.events + (LinkFlap(1, 2, at=1.0, period=2.0, count=2),),
    )


class TestCompositeEqualsExpansion:
    def test_link_flap_equals_its_failure_restore_pairs(self):
        flapped = tflap_bclique(4, period=3.0, count=2)
        [flap] = flapped.events
        expanded = replace(flapped, events=tuple(flap.events()))
        assert [type(e) for e in expanded.events] == [
            LinkFailure, LinkRestore, LinkFailure, LinkRestore,
        ]
        for seed in (0, 1):
            assert digest_of(flapped, SESSIONS, seed=seed) == digest_of(
                expanded, SESSIONS, seed=seed
            )


class TestCompoundSchedules:
    @pytest.mark.parametrize(
        "make_scenario, x, config",
        [(tlong_during_tdown, 4, FAST), (flap_under_tagg, 8, SESSIONS)],
        ids=["tlong-during-tdown", "flap-under-tagg"],
    )
    def test_runs_sanitized_and_matches_across_jobs(self, make_scenario, x, config):
        make_config = partial(constant_config, config=config)
        kwargs = dict(seeds=(0, 1), settings=SANITIZED, digests=True)
        _, runs = sweep_outcomes([x], make_scenario, make_config, **kwargs)
        _, parallel = sweep_outcomes(
            [x], make_scenario, make_config, jobs=2, **kwargs
        )
        assert len(runs) == 2
        assert all(run.converged for run in runs)
        assert [run.fingerprint.digest for run in runs] == [
            run.fingerprint.digest for run in parallel
        ]

    def test_second_event_changes_the_run(self):
        compound = tlong_during_tdown(4, 0)
        tlong_only = replace(compound, events=compound.events[:1])
        assert digest_of(compound) != digest_of(tlong_only)

    def test_one_entry_views_are_none_for_other_schedules(self):
        compound = tlong_during_tdown(4, 0)
        empty = disagree().scenario
        for scenario in (compound, empty):
            assert scenario.event is None
            assert scenario.failed_link is None
            assert scenario.agg_blocks is None


FAMILIES = {
    "tdown_clique": lambda: tdown_clique(5),
    "tlong_bclique": lambda: tlong_bclique(4),
    "tdown_internet": lambda: tdown_internet(24, seed=1),
    "tlong_internet": lambda: tlong_internet(24, seed=1),
    "treset_clique": lambda: treset_clique(4),
    "tcrash_clique": lambda: tcrash_clique(4),
    "tcrash_clique_no_restart": lambda: tcrash_clique(4, restart_after=None),
    "tflap_bclique": lambda: tflap_bclique(4, period=5.0),
    "tagg_clique": lambda: tagg_clique(4, prefixes=8, origins=2),
    "custom_tdown": lambda: custom_tdown(chain(4), destination=3),
    "custom_tlong": lambda: custom_tlong(clique(4), 0, (0, 1)),
    "explicit_originations": lambda: replace(
        tdown_clique(4), originations=((0, "dest"), (1, "other"))
    ),
    "disagree": lambda: disagree().scenario,
    "bad_gadget": lambda: bad_gadget().scenario,
    "wedgie": lambda: wedgie().scenario,
    "compound": lambda: flap_under_tagg(8, 0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_scenarios_survive_pickle(family):
    scenario = FAMILIES[family]()
    clone = pickle.loads(pickle.dumps(scenario))
    assert clone == scenario
    assert clone.events == scenario.events


def scenario_with(*events, topology=None, **fields) -> Scenario:
    return Scenario(
        name="x",
        topology=topology or clique(4),
        destination=0,
        events=events,
        **fields,
    )


class TestInjectorValidation:
    """Each check raises ConfigError with the fragment it always had."""

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda: scenario_with(LinkFailure(0, 9, at=0.0)), "not in topology"),
            (lambda: scenario_with(LinkRestore(0, 9, at=0.0)), "not in topology"),
            (lambda: scenario_with(SessionReset(0, 9, at=0.0)), "not in topology"),
            (lambda: scenario_with(LinkFlap(0, 9, 0.0, 2.0)), "not in topology"),
            (
                lambda: scenario_with(LinkFailure(0, 1, at=0.0), topology=chain(3)),
                "cut edge",
            ),
            (
                lambda: scenario_with(LinkFlap(0, 1, 0.0, 2.0), topology=chain(3)),
                "cut edge",
            ),
            (lambda: scenario_with(NodeCrash(9, at=0.0)), "crash node 9"),
            (lambda: scenario_with(NodeCrash(0, at=0.0)), "Tdown"),
            (lambda: NodeCrash(1, at=0.0, restart_after=-1.0), "restart_after"),
            (lambda: LinkFlap(0, 1, 0.0, period=-2.0), "flap_period"),
            (lambda: LinkFlap(0, 1, 0.0, period=2.0, count=0), "flap_count"),
            (
                lambda: scenario_with(OriginWithdrawal(1, "dest", at=0.0)),
                "not originated",
            ),
            (lambda: scenario_with(LinkFailure(0, 1, at=-1.0)), "offsets"),
        ],
    )
    def test_rejected(self, build, fragment):
        with pytest.raises(ConfigError, match=fragment):
            build()

    def test_session_reset_allows_cut_edges(self):
        scenario = scenario_with(SessionReset(0, 1, at=0.0), topology=chain(3))
        assert scenario.failed_link == (0, 1)

    def test_tagg_checks(self):
        good = tagg_clique(4, prefixes=8, origins=2)
        [cycle] = good.events
        with pytest.raises(ConfigError, match="agg_hold"):
            replace(cycle, hold=0.0)
        with pytest.raises(ConfigError, match="not originated at warm-up"):
            replace(good, originations=(), events=(cycle,))
        stray = replace(cycle, blocks=(replace(cycle.blocks[0], origin=3),))
        with pytest.raises(ConfigError, match="not originated at warm-up"):
            replace(good, events=(stray,))
        far = replace(cycle, blocks=(replace(cycle.blocks[0], origin=9),))
        with pytest.raises(ConfigError, match="aggregate origin 9"):
            replace(good, events=(far,))


class TestScheduleDerivedBehaviour:
    @pytest.mark.parametrize(
        "scenario, needed",
        [
            (tdown_clique(4), False),
            (tlong_bclique(4), False),
            (tagg_clique(4, prefixes=8), False),
            (disagree().scenario, False),
            (treset_clique(4), True),
            (tcrash_clique(4), True),
            (tflap_bclique(4, period=5.0), True),
            (flap_under_tagg(8, 0), True),
        ],
    )
    def test_needs_sessions(self, scenario, needed):
        assert scenario.needs_sessions is needed

    def test_session_timers_leave_a_sessions_config_alone(self):
        assert SESSIONS.sessions_enabled
        assert SESSIONS.hold_time == 9.0
        assert with_session_timers(SESSIONS) is SESSIONS

    def test_labels(self):
        assert LinkFailure.kind is EventKind.TLONG
        assert AggregationCycle.kind is EventKind.TAGG
        assert LinkRestore.kind is None

    def test_describe_run_prints_the_schedule(self):
        compound = run_experiment(tlong_during_tdown(4, 0), FAST, SETTINGS)
        text = describe_run(compound)
        assert "event     : tlong at +0s" in text
        assert f"event     : tdown at +{MRAI / 2:g}s" in text
        empty = run_experiment(replace(tdown_clique(4), events=()), FAST, SETTINGS)
        assert empty.converged
        assert "event     :" not in describe_run(empty)
