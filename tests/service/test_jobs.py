"""Job specs and sweep-plan resolution: every bad spec must die at the
submission gate, and resolved plans must be exactly what a foreground
sweep would run."""

import pytest

from repro.errors import ServiceError
from repro.experiments import ResiliencePolicy
from repro.service import (
    DONE,
    JOB_STATES,
    QUEUED,
    JobSpec,
    JobView,
    resolve_sweep_plan,
    validate_spec,
)
from repro.service.jobs import SWEEP_FAMILIES, job_sort_key


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(kind="sweep", params={"family": "tdown", "xs": [3]})
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_missing_kind_rejected(self):
        with pytest.raises(ServiceError, match="kind"):
            JobSpec.from_json({"params": {}})

    def test_non_dict_params_rejected(self):
        with pytest.raises(ServiceError, match="params"):
            JobSpec.from_json({"kind": "sweep", "params": [1, 2]})

    def test_params_default_empty(self):
        assert JobSpec.from_json({"kind": "figure"}).params == {}


class TestResolveSweepPlan:
    def test_defaults(self):
        plan = resolve_sweep_plan({"xs": [3, 4]})
        assert plan.xs == (3.0, 4.0)
        assert plan.seeds == (0,)
        assert plan.jobs == 1
        assert plan.policy is None
        assert plan.digests is True

    def test_trials_become_seed_range(self):
        plan = resolve_sweep_plan({"xs": [3], "trials": 4})
        assert plan.seeds == (0, 1, 2, 3)

    def test_churn_family_gets_session_timers(self):
        plan = resolve_sweep_plan({"family": "treset", "xs": [4]})
        config = plan.make_config(0)
        assert config.sessions_enabled
        assert config.hold_time == 9.0

    def test_non_churn_family_keeps_sessions_off(self):
        plan = resolve_sweep_plan({"family": "tdown", "xs": [4]})
        assert not plan.make_config(0).sessions_enabled

    def test_tflap_requires_size(self):
        with pytest.raises(ServiceError, match="size"):
            resolve_sweep_plan({"family": "tflap", "xs": [10.0]})

    def test_tflap_binds_size(self):
        plan = resolve_sweep_plan(
            {"family": "tflap", "xs": [10.0], "size": 4}
        )
        scenario = plan.make_scenario(10.0, 0)
        assert "4" in scenario.name

    def test_policy_from_retries_and_timeout(self):
        plan = resolve_sweep_plan(
            {"xs": [3], "retries": 5, "trial_timeout": 30.0}
        )
        assert isinstance(plan.policy, ResiliencePolicy)
        assert plan.policy.max_retries == 5
        assert plan.policy.trial_timeout == 30.0

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ({"family": "nope", "xs": [3]}, "family"),
            ({"xs": []}, "xs"),
            ({"xs": "3,4"}, "xs"),
            ({"xs": [3, "four"]}, "numbers"),
            ({"xs": [3], "trials": 0}, "trials"),
            ({"xs": [3], "trials": True}, "trials"),
            ({"xs": [3], "variant": "nope"}, "variant"),
            ({"xs": [3], "mrai": -1}, "mrai"),
            ({"xs": [3], "jobs": -1}, "jobs"),
            ({"family": "tflap", "xs": [3], "size": 2}, "size"),
        ],
    )
    def test_bad_params_rejected(self, params, fragment):
        with pytest.raises(ServiceError, match=fragment):
            resolve_sweep_plan(params)

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ({"family": ["x"], "xs": [3]}, "unknown sweep family"),
            ({"xs": [3], "retries": "two"}, "'retries' must be an int >= 0"),
            ({"xs": [3], "retries": True}, "'retries' must be an int >= 0"),
            ({"xs": [3], "retries": -1}, "'retries' must be an int >= 0"),
            ({"xs": [3], "trial_timeout": "x"}, "'trial_timeout' must be a number"),
            ({"xs": [3], "trial_timeout": True}, "'trial_timeout' must be a number"),
            ({"xs": [3], "trial_timeout": 0}, "'trial_timeout' must be a number"),
            ({"xs": [3], "telemetry": "no"}, "'telemetry' must be a bool"),
            ({"xs": [3], "digests": 1}, "'digests' must be a bool"),
        ],
    )
    def test_wrongly_typed_fields_rejected(self, params, fragment):
        with pytest.raises(ServiceError, match=fragment):
            resolve_sweep_plan(params)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServiceError, match="unknown sweep spec parameter.*trails"):
            resolve_sweep_plan({"xs": [3], "trails": 4})

    def test_every_family_resolves(self):
        for family in SWEEP_FAMILIES:
            params = {"family": family, "xs": [4.0]}
            if family == "tflap":
                params["size"] = 4
            plan = resolve_sweep_plan(params)
            assert callable(plan.make_scenario)


class TestValidateSpec:
    def test_unknown_kind(self):
        with pytest.raises(ServiceError, match="kind"):
            validate_spec(JobSpec(kind="mystery"))

    def test_sweep_delegates_to_plan(self):
        with pytest.raises(ServiceError, match="xs"):
            validate_spec(JobSpec(kind="sweep", params={}))

    def test_wrongly_typed_kind_and_figure_id_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            validate_spec(JobSpec(kind=["sweep"]))
        with pytest.raises(ServiceError, match="unknown figure"):
            validate_spec(JobSpec(kind="figure", params={"id": ["fig4a"]}))

    def test_figure_checks_registry(self):
        validate_spec(JobSpec(kind="figure", params={"id": "fig4a"}))
        with pytest.raises(ServiceError, match="figure"):
            validate_spec(JobSpec(kind="figure", params={"id": "fig99"}))

    def test_figure_accepts_quick_and_jobs(self):
        validate_spec(
            JobSpec(kind="figure", params={"id": "fig4a", "quick": False, "jobs": 2})
        )

    @pytest.mark.parametrize(
        "params, complaint",
        [
            ({"id": "fig4a", "jobs": -3, "quick": "no", "bogus": 1}, "bogus"),
            ({"id": "fig4a", "quick": "no"}, "quick"),
            ({"id": "fig4a", "quick": 1}, "quick"),
            ({"id": "theory", "jobs": "two"}, "jobs"),
            ({"id": "theory", "jobs": -3}, "jobs"),
            ({"id": "theory", "jobs": True}, "jobs"),
        ],
    )
    def test_figure_rejects_bad_parameters(self, params, complaint):
        with pytest.raises(ServiceError, match=complaint):
            validate_spec(JobSpec(kind="figure", params=params))


class TestJobView:
    def test_summary_shape(self):
        view = JobView(
            job_id="job-1",
            spec=JobSpec(kind="figure"),
            state=DONE,
            submitted=1.0,
            updated=2.0,
            detail={"ok": True},
        )
        summary = view.summary()
        assert summary["job"] == "job-1"
        assert summary["kind"] == "figure"
        assert summary["state"] == DONE
        assert summary["detail"] == {"ok": True}

    def test_terminal_states(self):
        view = JobView(job_id="job-1", spec=JobSpec(kind="figure"))
        assert view.state == QUEUED and not view.terminal
        for state in JOB_STATES:
            view.state = state
            assert view.terminal == (state in ("done", "failed", "cancelled"))

    def test_job_sort_key_numeric_order(self):
        ids = ["job-10", "job-2", "job-1", "weird"]
        assert sorted(ids, key=job_sort_key) == [
            "job-1",
            "job-2",
            "job-10",
            "weird",
        ]
