"""The five workloads: their inputs, sizes and the reason each exists.

A *job* is one ``run_experiment(scenario, config, settings, seed,
keep_network=True)`` call, or for ``svc_sweep`` one sweep from ``submit`` to
its ``end`` event.  Job ``i`` of a run started with ``--seed S`` uses trial
seed ``S * SEED_STRIDE + i``: the simulated work of one trial is chaotic in
its seed (the standard deviation of wall time over seeds is 3 % on a clique
and over 30 % on an Internet-like graph), so a run times a stream of distinct
trials and reports their median, rather than one trial many times.

The warm-up job of set-up is a fifth to a half of a timed job: large enough
that ``setup_s`` is not only interpreter start and imports, whose speed on the
reference box swings by 30 % between one quarter of an hour and the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.bgp import BgpConfig
from repro.experiments import (
    RunSettings,
    Scenario,
    tdown_clique,
    tdown_internet,
    tflap_bclique,
)
from repro.experiments.scenarios import tagg_clique

SEED_STRIDE = 100_000


@dataclass(frozen=True)
class SimWorkload:
    """A workload whose job is one ``run_experiment`` call."""

    name: str
    why: str
    inputs: str
    """The job's inputs, as the README and the result document state them."""
    scenario: Callable[[Tuple[int, ...], int], Scenario]
    """``scenario(size, trial_seed)``."""
    config: BgpConfig
    settings: RunSettings
    size: Tuple[int, ...]
    warmup_size: Tuple[int, ...]
    smoke_size: Tuple[int, ...]
    smoke_warmup_size: Tuple[int, ...]
    min_jobs: int
    """Jobs every run times whatever ``--seconds`` says; ``sim_digest`` and
    ``peak_rss_mb`` are taken over exactly these, so they do not depend on
    how fast the host is."""
    trace_jobs: int
    """Jobs the traced pass sends through the staged replica."""
    enforce_loop_bound: bool
    """Whether a loop outliving ``(m-1) x M`` fails the job (single-event
    Tdown only; repeated flaps are outside the bound's assumptions)."""


@dataclass(frozen=True)
class SvcWorkload:
    """The workload whose job is one sweep through the service daemon."""

    name: str
    why: str
    inputs: str
    params: Dict
    warmup_params: Dict
    smoke_params: Dict
    min_jobs: int
    reference_job_s: float
    """Today's job time on the reference box; a submit that takes ten
    times as long counts as a failed job."""


def _sweep(xs, trials) -> Dict:
    # mrai is pinned to the paper's 30 s: the service default of 2.0 makes
    # clique Tdown explode (clique-14: 34 k messages against 1.8 k).
    return {
        "family": "tdown",
        "xs": list(xs),
        "trials": trials,
        "mrai": 30.0,
        "jobs": 2,
        "digests": True,
    }


_SESSIONS = BgpConfig(
    hold_time=9.0, keepalive_interval=3.0, connect_retry=0.5, connect_retry_cap=4.0
)

WORKLOADS = {
    "clique_tdown": SimWorkload(
        name="clique_tdown",
        why=(
            "The paper's Fig. 4a path-exploration worst case: engine, net and "
            "the per-message bgp speaker path do most of the work."
        ),
        inputs="tdown_clique(20), BgpConfig() (MRAI 30 s), RunSettings()",
        scenario=lambda size, seed: tdown_clique(size[0]),
        config=BgpConfig(),
        settings=RunSettings(),
        size=(20,),
        warmup_size=(18,),
        smoke_size=(8,),
        smoke_warmup_size=(6,),
        min_jobs=10,
        trace_jobs=4,
        enforce_loop_bound=True,
    ),
    "inet_tdown": SimWorkload(
        name="inet_tdown",
        why=(
            "Internet-like Tdown at the paper's 48-node size, a new topology "
            "per job: the workload where EpochEvaluator.evaluate is the "
            "largest single cost."
        ),
        inputs="tdown_internet(48, seed=trial seed), BgpConfig(), RunSettings()",
        scenario=lambda size, seed: tdown_internet(size[0], seed=seed),
        config=BgpConfig(),
        settings=RunSettings(),
        size=(48,),
        warmup_size=(75,),
        smoke_size=(40,),
        smoke_warmup_size=(29,),
        min_jobs=40,
        trace_jobs=20,
        enforce_loop_bound=True,
    ),
    "tagg_scale": SimWorkload(
        name="tagg_scale",
        why=(
            "Routing-table scale: few events, so engine and net are idle; "
            "TrafficMatrixEvaluator, LPM and the trie (reads and writes side "
            "by side) and the batched bgp decision path do the work."
        ),
        inputs=(
            "tagg_clique(4, prefixes=1024, origins=2, hold=5.0, seed=trial seed), "
            "BgpConfig(mrai=2.0, mrai_mode='per-peer', batch_updates=True), "
            "RunSettings(traffic_matrix=True, traffic_epoch_rows=False)"
        ),
        scenario=lambda size, seed: tagg_clique(
            4, prefixes=size[0], seed=seed, origins=2, hold=5.0
        ),
        config=BgpConfig(mrai=2.0, mrai_mode="per-peer", batch_updates=True),
        settings=RunSettings(traffic_matrix=True, traffic_epoch_rows=False),
        size=(1024,),
        warmup_size=(256,),
        smoke_size=(64,),
        smoke_warmup_size=(32,),
        min_jobs=3,
        trace_jobs=1,
        enforce_loop_bound=False,
    ),
    "flap_sessions": SimWorkload(
        name="flap_sessions",
        why=(
            "Uses the engine differently: keepalive, hold and ConnectRetry "
            "timers, housekeeping events, cancel and re-arm, heap compaction; "
            "the decision process and the evaluator are nearly idle."
        ),
        inputs=(
            "tflap_bclique(10, period=15.0, count=6), BgpConfig(hold_time=9, "
            "keepalive_interval=3, connect_retry=0.5, connect_retry_cap=4), "
            "RunSettings()"
        ),
        scenario=lambda size, seed: tflap_bclique(size[0], period=15.0, count=size[1]),
        config=_SESSIONS,
        settings=RunSettings(),
        size=(10, 6),
        warmup_size=(10, 5),
        smoke_size=(6, 2),
        smoke_warmup_size=(5, 1),
        min_jobs=10,
        trace_jobs=5,
        enforce_loop_bound=False,
    ),
    "svc_sweep": SvcWorkload(
        name="svc_sweep",
        why=(
            "What a figure costs end to end: pool spawn, pickling, per-trial "
            "fingerprints, the fsync'd journal, event streaming and snapshot "
            "aggregation, through a fresh daemon."
        ),
        inputs=(
            "python -m repro serve; sweep family=tdown xs=[8,12,16,20] trials=4 "
            "mrai=30 jobs=2 digests=true (16 trials, telemetry on); the service "
            "fixes trial seeds to 0..3, so --seed does not vary this workload"
        ),
        params=_sweep([8, 12, 16, 20], 4),
        warmup_params=_sweep([8, 10], 2),
        smoke_params=_sweep([6, 8], 2),
        min_jobs=2,
        reference_job_s=2.0,
    ),
}
