"""Job specifications: what a client may ask the service to run.

A :class:`JobSpec` is plain JSON-able data — ``kind`` plus a parameter
dict — because it must cross the wire protocol, live in the durable
queue, and survive a daemon restart byte-identically.  Resolution from
spec to executable factories happens on the daemon side
(:func:`resolve_sweep_plan`), *eagerly at submit time*, so a bad spec is
rejected at the socket instead of failing hours later when the job is
dequeued.

Sweep jobs reuse the module-level trial adapters from
:mod:`repro.experiments.scenarios` and :func:`~repro.experiments.spec.
factory_ref` wrappers — the same picklable factory layer every parallel
sweep uses — so a service job's trials are *by construction* the same
``TrialTask`` objects a foreground ``sweep(jobs=1)`` would run.  That is
what makes the digest-equality acceptance check meaningful: the service
adds scheduling and durability around the trials, never a different
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bgp import VARIANT_NAMES, variant
from ..errors import ReproError, ServiceError
from ..experiments import (
    ResiliencePolicy,
    RunSettings,
    bclique_tflap_trial,
    bclique_tlong_trial,
    clique_tcrash_trial,
    clique_tdown_trial,
    clique_treset_trial,
    constant_config,
    factory_ref,
    with_session_timers,
)

#: Job kinds the executor knows how to run.
JOB_KINDS = ("sweep", "figure", "bench")
#: Everything a bench spec may carry: ``run.py --repeat`` and the two
#: deployment paths (``benchmarks/`` and where machine-written files land).
BENCH_PARAMS = ("repeat", "bench_dir", "results_dir")

#: Job lifecycle states, in the order a healthy job passes through them.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Sweep families a job spec may name, mapped to their trial adapters.
#: ``needs_size`` families sweep something other than topology size and
#: bind a fixed ``size`` keyword.  Session timers follow the scenario.
_FAMILIES: Dict[str, Dict] = {
    "tdown": {"adapter": clique_tdown_trial, "needs_size": False},
    "tlong": {"adapter": bclique_tlong_trial, "needs_size": False},
    "treset": {"adapter": clique_treset_trial, "needs_size": False},
    "tcrash": {"adapter": clique_tcrash_trial, "needs_size": False},
    "tflap": {"adapter": bclique_tflap_trial, "needs_size": True},
}

SWEEP_FAMILIES = tuple(sorted(_FAMILIES))


@dataclass(frozen=True)
class JobSpec:
    """One submitted unit of work: a kind plus JSON-able parameters."""

    kind: str
    params: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: Dict) -> "JobSpec":
        try:
            kind = data["kind"]
        except (TypeError, KeyError) as exc:
            raise ServiceError(f"job spec needs a 'kind': {data!r}") from exc
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ServiceError(
                f"job spec params must be an object, got {type(params).__name__}"
            )
        return cls(kind=kind, params=dict(params))


@dataclass(frozen=True)
class SweepPlan:
    """A sweep spec resolved to the exact objects ``checkpointed_sweep``
    will receive — shared by the daemon's executor and by tests that
    re-run the same sweep in the foreground for digest comparison."""

    xs: Tuple[float, ...]
    seeds: Tuple[int, ...]
    make_scenario: Callable
    make_config: Callable
    settings: RunSettings
    policy: Optional[ResiliencePolicy]
    jobs: int
    digests: bool


def _require_numbers(values, name: str) -> Tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise ServiceError(f"sweep spec {name!r} must be a non-empty list")
    out: List[float] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceError(
                f"sweep spec {name!r} must contain numbers, got {value!r}"
            )
        out.append(float(value))
    return tuple(out)


def resolve_sweep_plan(params: Dict) -> SweepPlan:
    """Validate a sweep job's parameters and build its executable plan.

    Raises :class:`~repro.errors.ServiceError` on any invalid field, so
    submission fails fast at the socket.
    """
    family = params.get("family", "tdown")
    if family not in _FAMILIES:
        raise ServiceError(
            f"unknown sweep family {family!r}; expected one of "
            f"{', '.join(SWEEP_FAMILIES)}"
        )
    entry = _FAMILIES[family]
    xs = _require_numbers(params.get("xs"), "xs")

    trials = params.get("trials", 1)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ServiceError(f"sweep spec 'trials' must be an int >= 1, got {trials!r}")
    seeds = tuple(range(trials))

    variant_name = params.get("variant", "standard")
    if variant_name not in VARIANT_NAMES:
        raise ServiceError(
            f"unknown variant {variant_name!r}; expected one of "
            f"{', '.join(VARIANT_NAMES)}"
        )
    mrai = params.get("mrai", 2.0)
    if isinstance(mrai, bool) or not isinstance(mrai, (int, float)) or mrai < 0:
        raise ServiceError(f"sweep spec 'mrai' must be a number >= 0, got {mrai!r}")
    config = variant(variant_name, mrai=float(mrai))

    if entry["needs_size"]:
        size = params.get("size")
        if isinstance(size, bool) or not isinstance(size, int) or size < 3:
            raise ServiceError(
                f"sweep family {family!r} needs an int 'size' >= 3, got {size!r}"
            )
        make_scenario = factory_ref(entry["adapter"], size=size)
    else:
        make_scenario = entry["adapter"]
    # The first trial's scenario decides the session timers; building it is
    # cheap and side-effect free, and a spec that cannot build it dies here.
    try:
        first = make_scenario(xs[0], seeds[0])
    except ReproError as exc:
        raise ServiceError(f"sweep spec cannot build its scenario: {exc}") from exc
    if first.needs_sessions:
        config = with_session_timers(config)

    jobs = params.get("jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        raise ServiceError(f"sweep spec 'jobs' must be an int >= 0, got {jobs!r}")

    policy: Optional[ResiliencePolicy] = None
    retries = params.get("retries")
    trial_timeout = params.get("trial_timeout")
    if retries is not None or trial_timeout is not None:
        kwargs: Dict = {}
        if retries is not None:
            kwargs["max_retries"] = retries
        if trial_timeout is not None:
            kwargs["trial_timeout"] = trial_timeout
        policy = ResiliencePolicy(**kwargs)

    settings = RunSettings(telemetry=bool(params.get("telemetry", True)))
    return SweepPlan(
        xs=xs,
        seeds=seeds,
        make_scenario=make_scenario,
        make_config=factory_ref(constant_config, config=config),
        settings=settings,
        policy=policy,
        jobs=jobs,
        digests=bool(params.get("digests", True)),
    )


def validate_spec(spec: JobSpec) -> None:
    """Reject invalid specs at submit time (the daemon's gate).

    Sweep specs are fully resolved (factories, config, policy); figure
    specs are checked against the claims table; bench specs may
    carry only :data:`BENCH_PARAMS` (the directories themselves are
    looked at when the cycle runs, as they exist *then*).
    """
    if spec.kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {spec.kind!r}; expected one of "
            f"{', '.join(JOB_KINDS)}"
        )
    if spec.kind == "sweep":
        resolve_sweep_plan(spec.params)
    elif spec.kind == "figure":
        from ..experiments.figures import CLAIMS

        figure_id = spec.params.get("id")
        if figure_id not in CLAIMS:
            raise ServiceError(
                f"unknown figure {figure_id!r}; expected one of "
                f"{', '.join(sorted(CLAIMS))}"
            )
    else:  # bench
        params = spec.params
        if "targets" in params:
            raise ServiceError(
                "bench spec 'targets' is retired: a bench job runs the whole "
                "benchmarks/e2e harness (every workload), there is nothing "
                "to select"
            )
        unknown = sorted(set(params) - set(BENCH_PARAMS))
        if unknown:
            raise ServiceError(
                f"unknown bench spec parameter(s) {', '.join(unknown)}; "
                f"expected only {', '.join(BENCH_PARAMS)}"
            )
        repeat = params.get("repeat", 1)
        if isinstance(repeat, bool) or not isinstance(repeat, int) or repeat < 1:
            raise ServiceError(
                f"bench spec 'repeat' must be an int >= 1, got {repeat!r}"
            )
        for key in ("bench_dir", "results_dir"):
            if not isinstance(params.get(key, ""), str):
                raise ServiceError(
                    f"bench spec {key!r} must be a path string, "
                    f"got {params[key]!r}"
                )


@dataclass
class JobView:
    """One job's current state, replayed from the durable queue."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    submitted: float = 0.0
    updated: float = 0.0
    detail: Dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict:
        """The JSON shape ``repro jobs`` and the protocol return."""
        return {
            "job": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "submitted": self.submitted,
            "updated": self.updated,
            "detail": dict(self.detail),
        }


def job_sort_key(job_id: str) -> Tuple[int, str]:
    """Sort ``job-N`` ids numerically, anything else lexically after."""
    prefix, _, tail = job_id.partition("-")
    if prefix == "job" and tail.isdigit():
        return (int(tail), "")
    return (1 << 30, job_id)
