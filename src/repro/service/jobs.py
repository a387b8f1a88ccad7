"""Job specifications: what a client may ask the service to run.

A :class:`JobSpec` is plain JSON-able data — ``kind`` plus a parameter
dict — because it must cross the wire protocol, live in the durable
queue, and survive a daemon restart byte-identically.  Resolution from
spec to executable factories happens on the daemon side
(:func:`resolve_sweep_plan`), *eagerly at submit time*, so a bad spec is
rejected at the socket instead of failing hours later when the job is
dequeued.

Sweep jobs reuse the module-level trial adapters from
:mod:`repro.experiments.scenarios`, bound with :func:`functools.partial` —
the same picklable factory layer every parallel sweep uses — so a service job's trials are *by construction* the same
``TrialTask`` objects a foreground ``sweep(jobs=1)`` would run.  That is
what makes the digest-equality acceptance check meaningful: the service
adds scheduling and durability around the trials, never a different
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

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
    with_session_timers,
)
from ..experiments.resilience import policy_of

#: Job kinds the executor knows how to run.
JOB_KINDS = ("sweep", "figure")
#: Everything a figure spec may carry: the claim id, ``--quick`` and ``--jobs``.
FIGURE_PARAMS = ("id", "quick", "jobs")
#: Everything a sweep spec may carry (see :func:`resolve_sweep_plan`).
SWEEP_PARAMS = (
    "family", "xs", "trials", "variant", "mrai", "size", "jobs",
    "retries", "trial_timeout", "telemetry", "digests",
)

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


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _require_numbers(values, name: str) -> Tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise ServiceError(f"sweep spec {name!r} must be a non-empty list")
    out: List[float] = []
    for value in values:
        if not _is_number(value):
            raise ServiceError(
                f"sweep spec {name!r} must contain numbers, got {value!r}"
            )
        out.append(float(value))
    return tuple(out)


def _require_int(params: Dict, name: str, default, minimum: int):
    """``params[name]`` (or ``default``) as an int >= ``minimum``; a bool
    is not an int here."""
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ServiceError(
            f"sweep spec {name!r} must be an int >= {minimum}, got {value!r}"
        )
    return value


def _require_bool(params: Dict, name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ServiceError(f"sweep spec {name!r} must be a bool, got {value!r}")
    return value


def resolve_sweep_plan(params: Dict) -> SweepPlan:
    """Validate a sweep job's parameters and build its executable plan.

    Raises :class:`~repro.errors.ServiceError` on any invalid field or a
    key outside :data:`SWEEP_PARAMS`, so submission fails fast at the
    socket and a queued job whose spec no longer resolves ends ``failed``.
    """
    _reject_unknown("sweep", params, SWEEP_PARAMS)
    family = params.get("family", "tdown")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ServiceError(
            f"unknown sweep family {family!r}; expected one of "
            f"{', '.join(SWEEP_FAMILIES)}"
        )
    entry = _FAMILIES[family]
    xs = _require_numbers(params.get("xs"), "xs")
    seeds = tuple(range(_require_int(params, "trials", 1, 1)))

    variant_name = params.get("variant", "standard")
    if variant_name not in VARIANT_NAMES:
        raise ServiceError(
            f"unknown variant {variant_name!r}; expected one of "
            f"{', '.join(VARIANT_NAMES)}"
        )
    mrai = params.get("mrai", 2.0)
    if not _is_number(mrai) or mrai < 0:
        raise ServiceError(f"sweep spec 'mrai' must be a number >= 0, got {mrai!r}")
    config = variant(variant_name, mrai=float(mrai))

    if entry["needs_size"]:
        size = params.get("size")
        if isinstance(size, bool) or not isinstance(size, int) or size < 3:
            raise ServiceError(
                f"sweep family {family!r} needs an int 'size' >= 3, got {size!r}"
            )
        make_scenario = partial(entry["adapter"], size=size)
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

    jobs = _require_int(params, "jobs", 1, 0)

    retries = params.get("retries")
    if retries is not None:
        _require_int(params, "retries", None, 0)
    trial_timeout = params.get("trial_timeout")
    if trial_timeout is not None and (
        not _is_number(trial_timeout) or trial_timeout <= 0
    ):
        raise ServiceError(
            f"sweep spec 'trial_timeout' must be a number > 0, "
            f"got {trial_timeout!r}"
        )
    policy = policy_of(retries, trial_timeout)

    settings = RunSettings(telemetry=_require_bool(params, "telemetry", True))
    return SweepPlan(
        xs=xs,
        seeds=seeds,
        make_scenario=make_scenario,
        make_config=partial(constant_config, config=config),
        settings=settings,
        policy=policy,
        jobs=jobs,
        digests=_require_bool(params, "digests", True),
    )


def _reject_unknown(kind: str, params: Dict, known: Tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ServiceError(
            f"unknown {kind} spec parameter(s) {', '.join(unknown)}; "
            f"expected only {', '.join(known)}"
        )


def validate_spec(spec: JobSpec) -> None:
    """Reject invalid specs at submit time (the daemon's gate).

    Sweep specs are fully resolved (factories, config, policy); figure
    specs may carry only :data:`FIGURE_PARAMS` — an id from the claims
    table, a bool ``quick`` and an int ``jobs`` >= 0.
    """
    if not isinstance(spec.kind, str) or spec.kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {spec.kind!r}; expected one of "
            f"{', '.join(JOB_KINDS)}"
        )
    if spec.kind == "sweep":
        resolve_sweep_plan(spec.params)
    else:  # figure
        from ..experiments.figures import CLAIMS

        params = spec.params
        figure_id = params.get("id")
        if not isinstance(figure_id, str) or figure_id not in CLAIMS:
            raise ServiceError(
                f"unknown figure {figure_id!r}; expected one of "
                f"{', '.join(sorted(CLAIMS))}"
            )
        _reject_unknown("figure", params, FIGURE_PARAMS)
        if not isinstance(params.get("quick", True), bool):
            raise ServiceError(
                f"figure spec 'quick' must be a bool, got {params['quick']!r}"
            )
        jobs = params.get("jobs", 1)
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
            raise ServiceError(
                f"figure spec 'jobs' must be an int >= 0, got {jobs!r}"
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
