"""Cross-process error transport: failures must pickle without losses.

Parallel sweeps ship trial failures home through ``pickle``.  The default
exception reduction rebuilds ``cls(*args)`` — which would silently drop
``BudgetExceededError.snapshot`` — so these tests pin the full round trip
for every object that crosses the worker boundary.
"""

import pickle

import pytest

from repro.errors import BudgetExceededError, SanitizerError, SimulationError
from repro.experiments import (
    DiagnosticSnapshot,
    NodeState,
    TrialFailure,
    TrialTask,
    RunSettings,
    clique_tdown_trial,
    constant_config,
    factory_ref,
)
from repro.bgp import BgpConfig


def make_snapshot() -> DiagnosticSnapshot:
    return DiagnosticSnapshot(
        time=12.5,
        events_processed=4321,
        pending_events=17,
        substantive_pending=9,
        pending_by_name={"mrai": 8, "keepalive": 9},
        nodes=(
            NodeState(
                node_id=2,
                alive=True,
                cpu_busy=True,
                cpu_queue=5,
                messages_received=104,
            ),
        ),
        trace_tail=("t=12.400 1->2 update", "t=12.450 2->3 withdraw"),
        sanitizer_state=("causality: 4321 checks",),
    )


class TestBudgetExceededErrorPickle:
    def test_snapshot_survives(self):
        error = BudgetExceededError("budget gone", snapshot=make_snapshot())
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, BudgetExceededError)
        assert clone.snapshot == error.snapshot

    def test_message_survives(self):
        error = BudgetExceededError("scenario 'x' exhausted its budget")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.snapshot is None

    def test_snapshot_payload_is_usable_after_round_trip(self):
        error = BudgetExceededError("dead", snapshot=make_snapshot())
        clone = pickle.loads(pickle.dumps(error))
        snapshot = clone.snapshot
        assert snapshot.events_processed == 4321
        assert snapshot.pending_by_name == {"mrai": 8, "keepalive": 9}
        assert snapshot.busiest_nodes()[0].node_id == 2
        assert "busiest CPUs" in snapshot.render()


class TestTrialFailurePickle:
    def test_round_trip_keeps_diagnostics(self):
        failure = TrialFailure(
            x=6.0,
            seed=3,
            error=BudgetExceededError("boom", snapshot=make_snapshot()),
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert (clone.x, clone.seed) == (6.0, 3)
        assert clone.snapshot == failure.snapshot
        assert "x=6.0" in repr(clone)

    def test_plain_simulation_error_round_trips(self):
        failure = TrialFailure(x=1.0, seed=0, error=SimulationError("bad"))
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.snapshot is None
        assert str(clone.error) == "bad"


class TestSanitizerErrorPickle:
    def test_round_trip(self):
        error = SanitizerError("causality violated at t=3.2: msg before send")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SanitizerError)
        assert str(clone) == str(error)

    def test_not_absorbed_as_simulation_error(self):
        # The sweep's fault isolation keys on SimulationError; a sanitizer
        # trip must stay outside that class even after a round trip.
        clone = pickle.loads(pickle.dumps(SanitizerError("x")))
        assert not isinstance(clone, SimulationError)


class TestTrialTaskPickle:
    def test_fully_specified_task_round_trips(self):
        task = TrialTask(
            index=3,
            x=5.0,
            seed=1,
            make_scenario=factory_ref(clique_tdown_trial),
            make_config=factory_ref(
                constant_config, config=BgpConfig(mrai=1.0)
            ),
            settings=RunSettings(failure_guard=0.5),
            digests=True,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.make_scenario(5.0, 1).name == "tdown-clique-5"

    def test_closure_task_fails_to_pickle(self):
        task = TrialTask(
            index=0,
            x=3.0,
            seed=0,
            make_scenario=lambda x, seed: None,
            make_config=factory_ref(
                constant_config, config=BgpConfig(mrai=1.0)
            ),
            settings=RunSettings(),
        )
        with pytest.raises(Exception):
            pickle.dumps(task)
