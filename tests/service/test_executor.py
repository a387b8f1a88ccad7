"""The job executor, driven in-process (no daemon, no socket).

The headline assertion lives here in its cheapest form: a sweep job run
through the service executor produces per-trial digests bit-identical to
a foreground ``checkpointed_sweep`` of the same resolved plan.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ObservationCheck
from repro.experiments import SweepJournal, checkpointed_sweep
from repro.experiments.figures import CLAIMS
from repro.experiments.sweep import summarize_point
from repro.experiments.report import TableData
from repro.service import executor
from repro.service import (
    JobSpec,
    JobView,
    ServiceState,
    execute_job,
    resolve_sweep_plan,
    sweep_digest,
)
from repro.telemetry.timeline import validate_chrome_trace


SWEEP_PARAMS = {"family": "tdown", "xs": [3.0, 4.0], "trials": 2}


def make_view(job_id: str, kind: str, params: dict) -> JobView:
    return JobView(job_id=job_id, spec=JobSpec(kind=kind, params=dict(params)))


@pytest.fixture
def state(tmp_path) -> ServiceState:
    service_state = ServiceState(tmp_path / "state")
    service_state.ensure_layout()
    return service_state


class TestSweepExecution:
    def test_sweep_job_completes_with_digests(self, state):
        events = []
        outcome = execute_job(
            make_view("job-1", "sweep", SWEEP_PARAMS), state, events.append
        )
        assert outcome.state == "done"
        assert outcome.detail["points"] == 2
        assert outcome.detail["trials"] == 4
        assert outcome.detail["ok"] == 4
        assert len(outcome.detail["digest"]) == 64

        kinds = [event["event"] for event in events]
        assert kinds.count("trial") == 4
        assert kinds.count("point") == 2
        assert kinds.count("snapshot") == 1
        # The snapshot aggregation is the last metrics the watcher sees.
        assert kinds.index("snapshot") > kinds.index("point")
        # Each trial event carries the digest its journal record holds.
        records, _ = SweepJournal(state.journal_path("job-1")).load()
        trials = [event for event in events if event["event"] == "trial"]
        assert {(e["x"], e["seed"]): e["digest"] for e in trials} == {
            key: record.digest for key, record in records.items()
        }
        assert all(len(e["digest"]) == 64 and "error" not in e for e in trials)

    def test_failed_trial_events_carry_the_error(self, state, monkeypatch):
        # An event budget no 6-clique Tdown can meet: every trial fails the
        # same way on any machine, under any load — no watchdog, no clock.
        def starved_plan(params):
            plan = resolve_sweep_plan(params)
            return replace(plan, settings=replace(plan.settings, event_budget=50))

        monkeypatch.setattr(executor, "resolve_sweep_plan", starved_plan)
        params = {"family": "tdown", "xs": [6.0], "trials": 2, "jobs": 2}
        events = []
        outcome = execute_job(make_view("job-1", "sweep", params), state, events.append)
        assert outcome.state == "done" and outcome.detail["failed"] == 2
        trials = [event for event in events if event["event"] == "trial"]
        assert [e["ok"] for e in trials] == [False, False]
        for event in trials:
            assert event["error"].startswith(
                "BudgetExceededError: scenario 'tdown-clique-6'"
            )
            assert "digest" not in event

    def test_progress_counts_over_the_whole_execution(self, state):
        """done/total run 1/4 .. 4/4 once, not 1/2, 2/2 at every x; after a
        cancel the resumed execution counts only what is left."""

        def progress_marks(job_id):
            payload = json.loads(
                (state.artifact_dir(job_id) / "timeline.json").read_text()
            )
            return [
                (entry["args"]["done"], entry["args"]["total"])
                for entry in payload["traceEvents"]
                if entry.get("cat") == "service.trial"
            ]

        execute_job(make_view("job-1", "sweep", SWEEP_PARAMS), state)
        assert progress_marks("job-1") == [(1, 4), (2, 4), (3, 4), (4, 4)]

        view = make_view("job-2", "sweep", SWEEP_PARAMS)
        seen = []
        execute_job(view, state, seen.append, lambda: bool(seen))
        journaled, _ = SweepJournal(state.journal_path("job-2")).load()
        left = 4 - len(journaled)
        assert 0 < left < 4
        execute_job(view, state)
        assert progress_marks("job-2") == [(k, left) for k in range(1, left + 1)]

    def test_digests_match_foreground_sweep(self, state, tmp_path):
        outcome = execute_job(make_view("job-1", "sweep", SWEEP_PARAMS), state)
        service_records, _ = SweepJournal(state.journal_path("job-1")).load()

        plan = resolve_sweep_plan(SWEEP_PARAMS)
        foreground = SweepJournal(tmp_path / "foreground.jsonl")
        checkpointed_sweep(
            plan.xs,
            plan.make_scenario,
            plan.make_config,
            journal=foreground,
            seeds=plan.seeds,
            settings=plan.settings,
            jobs=1,
            digests=True,
        )
        foreground_records = foreground.records
        foreground.close()

        service_map = {k: r.digest for k, r in service_records.items()}
        foreground_map = {k: r.digest for k, r in foreground_records.items()}
        assert service_map == foreground_map
        assert all(foreground_map.values())
        assert outcome.detail["digest"] == sweep_digest(foreground_records)

    def test_timeline_artifact_is_valid_chrome_trace(self, state):
        outcome = execute_job(make_view("job-1", "sweep", SWEEP_PARAMS), state)
        payload = json.loads(
            (state.artifact_dir("job-1") / "timeline.json").read_text()
        )
        assert validate_chrome_trace(payload) > 0
        assert outcome.detail["timeline"].endswith("timeline.json")

    def test_rerun_skips_journaled_trials(self, state):
        view = make_view("job-1", "sweep", SWEEP_PARAMS)
        execute_job(view, state)
        events = []
        outcome = execute_job(view, state, events.append)
        assert outcome.state == "done"
        assert outcome.detail["trials"] == 4
        # Nothing re-ran, so no per-trial events the second time.
        assert not [e for e in events if e["event"] == "trial"]

    def test_cancellation_preserves_finished_trials(self, state):
        seen = []

        def cancel_after_first_point() -> bool:
            return any(event["event"] == "point" for event in seen)

        outcome = execute_job(
            make_view("job-1", "sweep", SWEEP_PARAMS),
            state,
            seen.append,
            cancel_after_first_point,
        )
        assert outcome.state == "cancelled"
        records, _ = SweepJournal(state.journal_path("job-1")).load()
        assert 0 < len(records) < 4  # first point journaled, sweep unfinished

        # Re-execution resumes and completes with full digests.
        final = execute_job(make_view("job-1", "sweep", SWEEP_PARAMS), state)
        assert final.state == "done"
        assert final.detail["trials"] == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cancel_mid_point_keeps_every_reported_trial(self, state, jobs):
        """Per-trial durability at the service boundary: a ``trial`` event
        is only ever published for a trial already in the job's journal,
        so a cancel in the middle of a point loses nothing a watcher saw,
        and the resubmitted job runs only the rest."""
        params = {"family": "tdown", "xs": [3.0, 4.0], "trials": 4, "jobs": jobs}
        every = {(x, seed) for x in (3.0, 4.0) for seed in range(4)}
        seen = []

        def trials_of(events):
            return {(e["x"], e["seed"]) for e in events if e["event"] == "trial"}

        outcome = execute_job(
            make_view("job-1", "sweep", params),
            state,
            seen.append,
            lambda: bool(trials_of(seen)),  # cancel once one trial was reported
        )
        assert outcome.state == "cancelled"
        assert not [e for e in seen if e["event"] == "point"]  # mid-point
        records, _ = SweepJournal(state.journal_path("job-1")).load()
        assert trials_of(seen) and trials_of(seen) <= set(records)
        assert set(records) < every

        events = []
        final = execute_job(make_view("job-1", "sweep", params), state, events.append)
        assert final.state == "done" and final.detail["trials"] == 8
        assert trials_of(events) == every - set(records)

    def test_resumed_point_event_counts_every_journaled_trial(self, state):
        """A point half journaled before a cancel publishes the counts of
        all its trials on resume, not only of the ones re-run."""
        params = {"family": "tdown", "xs": [3.0], "trials": 4}
        seen = []
        execute_job(
            make_view("job-1", "sweep", params),
            state,
            seen.append,
            lambda: len([e for e in seen if e["event"] == "trial"]) >= 2,
        )
        journaled, _ = SweepJournal(state.journal_path("job-1")).load()
        assert 0 < len(journaled) < 4

        events = []
        execute_job(make_view("job-1", "sweep", params), state, events.append)
        assert len([e for e in events if e["event"] == "trial"]) == 4 - len(journaled)
        [point] = [e for e in events if e["event"] == "point"]
        assert point["stats"]["succeeded"] == 4
        assert point["stats"]["failed"] == point["stats"]["timeouts"] == 0
        records, _ = SweepJournal(state.journal_path("job-1")).load()
        assert point["stats"]["metrics"] == summarize_point(
            3.0, list(records.values())
        ).metrics

    def test_foreground_cli_sweep_equals_the_daemon_sweep(self, state, tmp_path):
        """``repro sweep`` resolves the spec ``repro submit --sweep tdown``
        sends, so both journal the same non-empty per-trial digests."""
        journal = tmp_path / "foreground.jsonl"
        argv = ["sweep", "--sizes", "3,4", "--trials", "2", "--journal", str(journal)]
        assert main(argv) == 0
        foreground, _ = SweepJournal(journal).load()
        assert len(foreground) == 4
        assert all(record.digest for record in foreground.values())

        params = {"family": "tdown", "xs": [3.0, 4.0], "trials": 2}
        outcome = execute_job(make_view("job-1", "sweep", params), state)
        assert outcome.detail["digest"] == sweep_digest(foreground)

    def test_queued_spec_with_an_unknown_key_fails_with_the_message(self, state):
        outcome = execute_job(
            make_view("job-1", "sweep", {"xs": [3.0], "trails": 4}), state
        )
        assert outcome.state == "failed"
        assert "trails" in outcome.detail["error"]

    def test_supervised_sweep_reports_supervision(self, state):
        params = dict(SWEEP_PARAMS, jobs=2, retries=1)
        outcome = execute_job(make_view("job-1", "sweep", params), state)
        assert outcome.state == "done"
        assert outcome.detail["supervision"]["trials"] == 4
        assert outcome.detail["supervision"]["completed"] == 4


class TestOtherKinds:
    def test_figure_job_writes_artifact(self, state):
        events = []
        outcome = execute_job(
            make_view("job-1", "figure", {"id": "theory", "quick": True}),
            state,
            events.append,
        )
        assert outcome.state == "done"
        artifact = state.artifact_dir("job-1") / "theory.txt"
        assert artifact.exists() and artifact.read_text().strip()
        assert any(event["event"] == "log" for event in events)

    def test_full_figure_job_writes_the_committed_result(self, state):
        outcome = execute_job(
            make_view("job-1", "figure", {"id": "theory", "quick": False}),
            state,
        )
        assert outcome.state == "done"
        committed = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        artifact = state.artifact_dir("job-1") / "theory.txt"
        assert artifact.read_text() == (committed / "theory.txt").read_text()

    @pytest.mark.parametrize(
        "holds, failures",
        [
            (False, []),
            (
                True,
                [
                    "known divergence 1 (EXPERIMENTS.md) now holds; drop it "
                    "from the claims table and the docs: stub-check: HOLDS — stub"
                ],
            ),
        ],
    )
    def test_full_figure_job_judges_the_row_as_repro_figure_does(
        self, state, monkeypatch, holds, failures
    ):
        def driver():
            return TableData(
                "theory", checks=[ObservationCheck("stub-check", holds, "stub")]
            )

        claim = replace(
            CLAIMS["theory"], driver=driver, divergences={"stub-check": 1}
        )
        monkeypatch.setitem(CLAIMS, "theory", claim)
        outcome = execute_job(
            make_view("job-1", "figure", {"id": "theory", "quick": False}),
            state,
        )
        assert outcome.state == "done"
        assert outcome.detail["shape_failures"] == failures
        code = main(["figure", "theory"])
        assert code == (1 if failures else 0)

    def test_unknown_kind_fails_without_raising(self, state):
        outcome = execute_job(make_view("job-1", "mystery", {}), state)
        assert outcome.state == "failed"
        assert "mystery" in outcome.detail["error"]

    def test_bad_figure_id_fails_without_raising(self, state):
        outcome = execute_job(
            make_view("job-1", "figure", {"id": "fig99"}), state
        )
        assert outcome.state == "failed"
        assert outcome.detail["kind"] == "ServiceError"
