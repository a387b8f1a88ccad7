"""One workload in one fresh interpreter; started by ``run.py`` only.

Prints one JSON document as the last line of standard output:
``{"correct", "attempted", "failed", "metrics", "detail"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402  (needs src on the path)
from jobs import JobResult, run_job, staged_job  # noqa: E402
from svc import Daemon, SvcJob  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS, SimWorkload, SvcWorkload  # noqa: E402

DRIFT_JOBS = 4
"""Back-to-back repeats, garbage left to the collector, whose first and last
give ``experiments.job_drift_share``."""
PINGS = 50


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest_of(digests: List[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def write_trace(tracer: Tracer, workload: str, meta: Dict) -> None:
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{workload}.json", {"job": workload, **meta})


def timed_loop(seconds: float, min_jobs: int, job: Callable[[int], object]) -> List:
    """Jobs 0, 1, 2, ... until ``seconds`` have passed, ``min_jobs`` at least."""
    results = []
    started = time.perf_counter()
    while len(results) < min_jobs or time.perf_counter() - started < seconds:
        results.append(job(len(results)))
    return results


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------


class SimRun:
    """Set-up and both passes of a :class:`SimWorkload`."""

    def __init__(self, workload: SimWorkload, seed: int, smoke: bool, meta: Dict) -> None:
        self.workload = workload
        self.meta = meta
        self.base = seed * SEED_STRIDE
        self.size = workload.smoke_size if smoke else workload.size
        self.warmup_size = (
            workload.smoke_warmup_size if smoke else workload.warmup_size
        )
        self.min_jobs = 2 if smoke else workload.min_jobs
        self.trace_jobs = min(2, workload.trace_jobs) if smoke else workload.trace_jobs

    def set_up(self) -> None:
        warmup = run_job(self.workload, self.warmup_size, self.base)
        if not warmup.ok:
            raise RuntimeError(f"warm-up job failed: {warmup.failures}")

    def tear_down(self) -> None:
        pass

    def untraced(self, seconds: float) -> Dict:
        workload = self.workload
        rss_at_min = 0.0

        def job(index: int) -> JobResult:
            nonlocal rss_at_min
            result = run_job(
                workload, self.size, self.base + index, fingerprint=index < self.min_jobs
            )
            if index == self.min_jobs - 1:
                rss_at_min = peak_rss_mib(resource.RUSAGE_SELF)
            return result

        results = timed_loop(seconds, self.min_jobs, job)
        # The same inputs must give the same simulation: job 0 once more.
        repeat = run_job(workload, self.size, self.base)
        if repeat.ok and repeat.digest != results[0].digest:
            repeat.failures.append("job 0 repeated with another digest")
        timed = [r for r in results if r.ok]
        if not timed:
            raise RuntimeError(f"every job failed: {results[0].failures}")
        metrics = {
            "job_wall_s": metric(statistics.median(r.wall_s for r in timed), "s"),
            "events_per_s": metric(
                statistics.median(r.events / r.wall_s for r in timed), "1/s"
            ),
            "route_updates_per_s": metric(
                statistics.median(r.route_updates / r.wall_s for r in timed), "1/s"
            ),
            "peak_rss_mb": metric(rss_at_min, "MiB"),
        }
        every = results + [repeat]
        return {
            "attempted": len(every),
            "failed": sum(1 for r in every if not r.ok),
            "metrics": metrics,
            "detail": {
                "jobs": len(results),
                "job_wall_samples_s": [r.wall_s for r in results],
                "events": [r.events for r in results[: self.min_jobs]],
                "route_updates": [r.route_updates for r in results[: self.min_jobs]],
                "sim_digest": digest_of(
                    [r.digest for r in results[: self.min_jobs]]
                ),
                "core.loops_over_bound": sum(r.loops_over_bound for r in every),
                "failures": [
                    f"seed {r.seed}: {why}" for r in every for why in r.failures
                ],
            },
        }

    def batch(self, **options) -> List[JobResult]:
        """The traced pass's unit of work: the first ``trace_jobs`` jobs,
        plainly run (``options`` go to :func:`run_job`)."""
        return [
            run_job(self.workload, self.size, self.base + index, **options)
            for index in range(self.trace_jobs)
        ]

    def traced(self) -> Dict:
        workload = self.workload

        def wall(batch: List[JobResult]) -> float:
            return sum(r.wall_s for r in batch)

        # Back-to-back repeats as a long-lived sweep worker runs them: the
        # garbage of one job is collected during the next.
        gc.collect()
        drift = [self.batch(collect=False) for _ in range(DRIFT_JOBS)]
        series = [wall(batch) for batch in drift]
        reference = [drift[0], self.batch()]
        untraced_s = statistics.fmean(wall(batch) for batch in reference)
        telemetry = self.batch(telemetry=True)

        tracer = Tracer()
        layers.install(tracer, layers.BOUNDARIES)
        layers.install_timer_callbacks(tracer)
        try:
            staged = [
                staged_job(workload, self.size, self.base + index, tracer)
                for index in range(self.trace_jobs)
            ]
        finally:
            tracer.uninstall()
        every = reference[1] + telemetry + staged
        for plain_job, staged_one in zip(reference[1], staged):
            if staged_one.digest != plain_job.digest:
                staged_one.failures.append(
                    "staged replica digest differs from run_experiment"
                )
        for plain_job, with_probe in zip(reference[1], telemetry):
            if with_probe.digest != plain_job.digest:
                with_probe.failures.append("telemetry changed the digest")

        ledger = tracer.ledger()
        write_trace(tracer, workload.name, self.meta)
        traced_s = wall(staged)
        values = layers.sim_metrics(ledger)
        evaluate_s = ledger.get("dataplane.traffic_evaluate", {}).get("total_s", 0.0)
        values.update(
            {
                "engine.events_fired": sum(r.events for r in staged),
                "engine.fired_per_scheduled": (
                    sum(r.events for r in staged) / values["engine.events_scheduled"]
                ),
                "bgp.route_updates": sum(r.route_updates for r in staged),
                "core.loops_detected": sum(r.loops for r in staged),
                "core.loops_over_bound": sum(r.loops_over_bound for r in staged),
                "dataplane.packets_per_s": (
                    sum(r.packets_offered for r in staged) / evaluate_s
                    if evaluate_s
                    else 0.0
                ),
                "analysis.fingerprint_s": sum(r.fingerprint_s for r in staged),
                "experiments.job_drift_share": (series[-1] - series[0]) / series[0],
                "telemetry.on_overhead_share": (wall(telemetry) - untraced_s)
                / untraced_s,
                "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
            }
        )
        return {
            "attempted": len(every),
            "failed": sum(1 for r in every if not r.ok),
            "metrics": layers.complete(values),
            "detail": {
                "traced_jobs": self.trace_jobs,
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "drift_series_s": series,
                "sim_digest": digest_of([r.digest for r in staged]),
                "ledger": ledger,
                "failures": [
                    f"seed {r.seed}: {why}" for r in every for why in r.failures
                ],
            },
        }


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------


class SvcRun:
    """Set-up and both passes of the :class:`SvcWorkload`."""

    def __init__(self, workload: SvcWorkload, seed: int, smoke: bool, meta: Dict) -> None:
        self.workload = workload
        self.meta = meta
        self.spec = {
            "kind": "sweep",
            "params": workload.smoke_params if smoke else workload.params,
        }
        self.min_jobs = workload.min_jobs
        self.timeout_s = 10.0 * workload.reference_job_s
        self.daemon = Daemon(OUT)

    def set_up(self) -> None:
        self.daemon.start()
        warmup = self.daemon.run_job(
            {"kind": "sweep", "params": self.workload.warmup_params}, self.timeout_s
        )
        if warmup.state != "done":
            raise RuntimeError(f"warm-up sweep ended {warmup.state}: {warmup.error}")

    def tear_down(self) -> None:
        self.daemon.stop()

    def submit(self, _index: int = 0) -> SvcJob:
        job = self.daemon.run_job(self.spec, self.timeout_s)
        if job.state != "done":
            job.error = f"job ended {job.state or 'without a state'}: {job.error}"
        elif not job.trials_ok:
            job.error = "a trial failed"
        return job

    def untraced(self, seconds: float) -> Dict:
        jobs = timed_loop(seconds, self.min_jobs, self.submit)
        done = [job for job in jobs if not job.error]
        if not done:
            raise RuntimeError(f"every job failed: {jobs[0].error}")
        digests = sorted({job.detail.get("digest", "") for job in done})
        failures = [job.error for job in jobs if job.error]
        if len(digests) > 1:
            failures.append("jobs of one spec ended with different digests")

        def per_second(*counters: str) -> float:
            return statistics.median(
                sum(job.counters.get(c, 0) for c in counters) / job.wall_s
                for job in done
            )

        # The daemon and its pool workers are this process's descendants;
        # their peak is readable once they have ended and been waited for.
        self.daemon.stop()
        metrics = {
            "job_wall_s": metric(statistics.median(job.wall_s for job in done), "s"),
            "events_per_s": metric(per_second("engine.events_executed"), "1/s"),
            "route_updates_per_s": metric(
                per_second(
                    "net.messages_sent.Announcement", "net.messages_sent.Withdrawal"
                ),
                "1/s",
            ),
            "peak_rss_mb": metric(peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB"),
        }
        return {
            "attempted": len(jobs),
            "failed": min(len(failures), len(jobs)),
            "metrics": metrics,
            "detail": {
                "jobs": len(jobs),
                "job_wall_samples_s": [job.wall_s for job in jobs],
                "sim_digest": digests[0],
                "note": "the service fixes trial seeds to 0..trials-1: --seed "
                "does not vary this workload",
                "failures": failures,
            },
        }

    def traced(self) -> Dict:
        from repro.experiments import SweepJournal, checkpointed_sweep, sweep
        from repro.service import resolve_sweep_plan, sweep_digest

        daemon = self.daemon
        pings = []
        for _ in range(PINGS):
            started = time.perf_counter()
            daemon.client.ping()
            pings.append(time.perf_counter() - started)
        jobs = [self.submit() for _ in range(2)]
        failures = [job.error for job in jobs if job.error]
        job = jobs[-1]

        plan = resolve_sweep_plan(self.spec["params"])
        arguments = dict(
            seeds=plan.seeds, settings=plan.settings, policy=plan.policy, digests=True
        )

        def foreground_sweep(jobs: int) -> float:
            gc.collect()
            started = time.perf_counter()
            sweep(plan.xs, plan.make_scenario, plan.make_config, jobs=jobs, **arguments)
            return time.perf_counter() - started

        plain_s = foreground_sweep(plan.jobs)
        journal = SweepJournal(daemon.root / "foreground.trials.jsonl")
        tracer = Tracer()
        layers.install(tracer, layers.JOURNAL_BOUNDARIES)
        try:
            gc.collect()
            root = tracer.begin("experiments.job")
            checkpointed_sweep(
                plan.xs,
                plan.make_scenario,
                plan.make_config,
                journal=journal,
                jobs=plan.jobs,
                **arguments,
            )
            journal.close()
            journaled_s = tracer.end(root)
        finally:
            tracer.uninstall()
        foreground_digest = sweep_digest(journal.records)
        if not job.error and job.detail.get("digest") != foreground_digest:
            failures.append("daemon digest differs from the foreground sweep")
        serial_s = foreground_sweep(1)

        ledger = tracer.ledger()
        write_trace(tracer, self.workload.name, self.meta)
        appends = ledger["experiments.journal_append"]
        values = {
            "experiments.sweep_plain_s": plain_s,
            "experiments.sweep_journaled_s": journaled_s,
            "experiments.journal_overhead_s": journaled_s - plain_s,
            "experiments.journal_appends": int(appends["calls"]),
            "experiments.journal_append_self_s": appends["self_s"],
            "experiments.parallel_efficiency": serial_s / (plan.jobs * plain_s),
            "experiments.job_drift_share": (jobs[-1].wall_s - jobs[0].wall_s)
            / jobs[0].wall_s,
            "service.daemon_start_s": daemon.start_s,
            "service.ping_rtt_s": statistics.median(pings),
            "service.submit_rtt_s": job.submit_rtt_s,
            "service.first_event_s": job.first_event_s,
            "service.events_streamed": job.events_streamed,
            "service.roundtrip_overhead_s": job.wall_s - journaled_s,
            "trace.attributed_share": 1.0
            - ledger["experiments.job"]["self_s"] / journaled_s,
        }
        attempted = len(jobs) + 1
        return {
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": layers.complete(values),
            "detail": {
                "sim_digest": foreground_digest,
                "sweep_serial_s": serial_s,
                "ledger": ledger,
                "failures": failures,
            },
        }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--meta", type=json.loads, default={},
                        help="what run.py records of the host, for the trace file")
    args = parser.parse_args(argv)

    # run.py ends a worker with SIGTERM; unwind so that the daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    kind = SvcRun if isinstance(workload, SvcWorkload) else SimRun
    run = kind(workload, args.seed, args.smoke, args.meta)
    try:
        run.set_up()
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            document = {"setup_s": setup_s}
        else:
            log(f"{workload.name}: set up in {setup_s:.2f} s")
            document = run.traced() if args.trace else run.untraced(args.seconds)
            document["setup_s"] = setup_s
            document["correct"] = document["failed"] == 0
            for why in document["detail"]["failures"]:
                log(f"{workload.name}: FAILED {why}")
    finally:
        run.tear_down()
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
