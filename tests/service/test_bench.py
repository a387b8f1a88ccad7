"""Continuous benchmarking against a stub repository tree.

The tree carries copies of the *real* ``BENCHMARK.json``, ``run.py`` and
``compare.py``, so the measuring and gating path exercised here is the one CI
and the daemon run — only the measured workload is fake: a stub ``worker.py``
prints canned worker documents, steered through ``canned.json`` beside it.
"""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.errors import JobCancelled, ServiceError
from repro.service import (
    JobSpec,
    JobView,
    ServiceState,
    TrajectoryStore,
    execute_job,
    run_bench_cycle,
)

from daemon_harness import DaemonHarness

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

STUB_WORKER = """\
import argparse, json, sys, time
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--setup-only", action="store_true")
args, _rest = parser.parse_known_args()
canned = json.loads((Path(__file__).parent / "canned.json").read_text())
time.sleep(canned["sleep_s"])
if canned["exit"]:
    sys.exit(canned["exit"])
if args.setup_only:
    print(json.dumps({"setup_s": 0.01}))
    sys.exit(0)
wall = canned["job_wall_s"]
readings = {
    "job_wall_s": (wall, "s"),
    "events_per_s": (100 / wall, "1/s"),
    "route_updates_per_s": (10 / wall, "1/s"),
    "peak_rss_mb": (30.0, "MiB"),
}
print(json.dumps({
    "attempted": 3,
    "failed": 0,
    "setup_s": 0.01,
    "metrics": {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in readings.items()
    },
    "detail": {
        "job_wall_samples_s": [wall] * 3,
        "sim_digest": canned["sim_digest"] + args.workload,
        "events": 100,
        "route_updates": 10,
        "failures": [],
    },
}))
"""


def build_tree(root: Path) -> Path:
    """A stub repository under ``root``; returns its ``benchmarks/``."""
    harness = root / "benchmarks" / "e2e"
    harness.mkdir(parents=True)
    # run.py refuses to start without a program to measure.
    (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", root)
    for script in ("run.py", "compare.py"):
        shutil.copy(REPO_ROOT / "benchmarks" / "e2e" / script, harness)
    (harness / "worker.py").write_text(STUB_WORKER)
    can(root / "benchmarks")
    return root / "benchmarks"


def can(bench_dir: Path, job_wall_s=0.05, sim_digest="d-", exit=0, sleep_s=0.0):
    """Steer what the stub workers of the next cycle print."""
    (bench_dir / "e2e" / "canned.json").write_text(
        json.dumps(
            {
                "job_wall_s": job_wall_s,
                "sim_digest": sim_digest,
                "exit": exit,
                "sleep_s": sleep_s,
            }
        )
    )


@pytest.fixture
def bench_dir(tmp_path) -> Path:
    return build_tree(tmp_path / "repo")


def trajectory(bench_dir: Path):
    return TrajectoryStore(bench_dir / "results" / "perf_trajectory.jsonl").records()


def harness_processes(bench_dir: Path):
    """PIDs of every live ``run.py``/``worker.py`` of this stub tree (a
    worker is its own process group's leader; zombies have no cmdline)."""
    needle = str(bench_dir / "e2e")
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if needle in cmdline:
                found.append(int(entry.name))
    return found


class TestRunBenchCycle:
    def test_first_cycle_has_no_base_and_creates_it(self, bench_dir):
        messages = []
        record = run_bench_cycle(bench_dir=bench_dir, publish=messages.append)
        assert record["ok"] and record["base"] is None and record["rows"] == []
        assert "error" not in record
        assert record["commit"] == "unknown"  # the stub tree is not a checkout
        # Every <workload>/<metric> median, under the names run.py prints.
        assert sorted(record["medians"]) == sorted(
            f"{workload['name']}/{metric['name']}"
            for workload in SPEC["workloads"]
            for metric in SPEC["end_to_end"]
        )
        assert record["medians"]["clique_tdown/job_wall_s"] == 0.05
        assert any("run.py --repeat 1" in message for message in messages)
        assert trajectory(bench_dir) == [record]
        results = bench_dir / "results"
        assert (results / "E2E_base.json").read_bytes() == (
            results / "E2E_candidate.json"
        ).read_bytes()

    def test_matching_baseline_passes(self, bench_dir):
        run_bench_cycle(bench_dir=bench_dir)
        record = run_bench_cycle(bench_dir=bench_dir, repeat=2)
        # Gated by compare.py this time: a base existed.
        assert record["ok"] and record["base"] == "unknown"
        assert record["rows"] == []
        assert [entry["ok"] for entry in trajectory(bench_dir)] == [True, True]
        # The passing candidate is the next cycle's base.
        base = json.loads((bench_dir / "results" / "E2E_base.json").read_text())
        assert base["meta"]["repeat"] == 2

    def test_regression_fails_cycle(self, bench_dir):
        run_bench_cycle(bench_dir=bench_dir)
        can(bench_dir, job_wall_s=0.10)  # 2x the base, bound 0.25
        record = run_bench_cycle(bench_dir=bench_dir)
        assert not record["ok"]
        assert "error" not in record  # the bench ran fine; the gate said no
        worse = [row for row in record["rows"] if row.endswith("  worse")]
        assert any(
            row.startswith("clique_tdown") and "job_wall_s" in row for row in worse
        )
        assert any(
            row == "MISMATCH clique_tdown: job_wall_s is worse by more than its bound"
            for row in record["rows"]
        )
        assert trajectory(bench_dir)[-1] == record
        # The base stays the last passing cycle.
        base = json.loads((bench_dir / "results" / "E2E_base.json").read_text())
        assert base["workloads"]["clique_tdown"]["metrics"]["job_wall_s"]["value"] == 0.05

    def test_changed_sim_digest_is_a_mismatch(self, bench_dir):
        run_bench_cycle(bench_dir=bench_dir)
        before = (bench_dir / "results" / "E2E_base.json").read_bytes()
        can(bench_dir, sim_digest="other-")
        record = run_bench_cycle(bench_dir=bench_dir)
        assert not record["ok"]
        assert "MISMATCH clique_tdown: untraced sim_digest differs" in record["rows"]
        assert (bench_dir / "results" / "E2E_base.json").read_bytes() == before

    def test_missing_script_reported_not_raised(self, bench_dir):
        (bench_dir / "e2e" / "run.py").unlink()
        record = run_bench_cycle(bench_dir=bench_dir)
        assert not record["ok"]
        assert "run.py exited 2" in record["error"]
        assert trajectory(bench_dir) == [record]

    def test_crashing_script_reported_not_raised(self, bench_dir):
        can(bench_dir, exit=3)
        record = run_bench_cycle(bench_dir=bench_dir)
        assert not record["ok"] and record["medians"] == {}
        assert "run.py exited 1" in record["error"]
        assert "worker exited with code 3" in record["error"]
        assert not (bench_dir / "results" / "E2E_base.json").exists()

        # compare.py crashing exits 1 as well; that is no verdict either.
        can(bench_dir)
        run_bench_cycle(bench_dir=bench_dir)
        (bench_dir / "results" / "E2E_base.json").write_text('{"meta": {"commit": "x"}}')
        record = run_bench_cycle(bench_dir=bench_dir)
        assert not record["ok"]
        assert "compare.py exited 1, no verdict" in record["error"]

    def test_timed_out_script_reported_not_raised(self, bench_dir):
        can(bench_dir, sleep_s=30.0)
        started = time.monotonic()
        record = run_bench_cycle(bench_dir=bench_dir, timeout=0.5)
        assert time.monotonic() - started < 20.0  # run.py ended its worker
        assert not record["ok"]
        assert record["error"] == "run.py timed out after 0.5s"
        assert trajectory(bench_dir) == [record]

    def test_cancelled_cycle_stops_the_harness_and_records_nothing(self, bench_dir):
        run_bench_cycle(bench_dir=bench_dir)  # a base and one record exist
        results = bench_dir / "results"
        base = (results / "E2E_base.json").read_bytes()
        can(bench_dir, sleep_s=30.0)
        flag_at = time.monotonic() + 1.5
        with pytest.raises(JobCancelled):
            run_bench_cycle(
                bench_dir=bench_dir,
                should_cancel=lambda: time.monotonic() >= flag_at,
            )
        assert time.monotonic() - flag_at < 5.0  # not 30 s, not the 600 s timeout
        assert harness_processes(bench_dir) == []  # run.py and its worker's group
        assert len(trajectory(bench_dir)) == 1  # no record for the cancelled cycle
        assert (results / "E2E_base.json").read_bytes() == base
        assert not (results / "E2E_candidate.json").exists()

    def test_missing_bench_dir_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="does not exist"):
            run_bench_cycle(bench_dir=tmp_path / "nope")

    def test_custom_results_dir(self, bench_dir, tmp_path):
        results = tmp_path / "elsewhere"
        results.mkdir()
        # A daemon killed mid-append left a torn tail: the cycle cuts it off.
        (results / "perf_trajectory.jsonl").write_text('{"crc": 1, "record"')
        record = run_bench_cycle(bench_dir=bench_dir, results_dir=results)
        assert TrajectoryStore(results / "perf_trajectory.jsonl").records() == [record]
        # Every machine-written file lands there, none beside the scripts.
        assert sorted(path.name for path in results.iterdir()) == [
            "E2E_base.json",
            "E2E_candidate.json",
            "perf_trajectory.jsonl",
            "perf_trajectory.jsonl.lock",  # the trajectory's writer lock
        ]
        assert not (bench_dir / "results").exists()


class TestBenchJob:
    def test_bench_job_through_executor(self, bench_dir, tmp_path):
        state = ServiceState(tmp_path / "state")
        state.ensure_layout()
        events = []
        params = {"bench_dir": str(bench_dir), "results_dir": str(tmp_path / "out")}
        view = JobView(job_id="job-1", spec=JobSpec(kind="bench", params=params))
        outcome = execute_job(view, state, events.append)
        assert outcome.state == "done"
        assert outcome.detail["ok"] and len(outcome.detail["medians"]) == 25
        assert any(event["event"] == "log" for event in events)

        can(bench_dir, job_wall_s=0.10)
        view = JobView(job_id="job-2", spec=JobSpec(kind="bench", params=params))
        outcome = execute_job(view, state, events.append)
        assert outcome.state == "failed"
        assert outcome.detail["rows"]

        # A bad deployment path fails the job cleanly, not the worker.
        view = JobView(
            job_id="job-3",
            spec=JobSpec(kind="bench", params={"bench_dir": str(tmp_path / "nope")}),
        )
        outcome = execute_job(view, state, events.append)
        assert outcome.state == "failed"
        assert "does not exist" in outcome.detail["error"]


    def test_cancelled_bench_job_ends_cancelled(self, bench_dir, tmp_path):
        state = ServiceState(tmp_path / "state")
        state.ensure_layout()
        can(bench_dir, sleep_s=30.0)
        view = JobView(
            job_id="job-1",
            spec=JobSpec(kind="bench", params={"bench_dir": str(bench_dir)}),
        )
        flag_at = time.monotonic() + 1.0
        outcome = execute_job(
            view, state, should_cancel=lambda: time.monotonic() >= flag_at
        )
        assert outcome.state == "cancelled"
        assert trajectory(bench_dir) == []


class TestBenchScheduler:
    def test_short_interval_never_piles_up_jobs(self, tmp_path):
        """A cycle (seconds here, minutes for real) outlasts the interval:
        the scheduler waits for it instead of queueing one job per tick."""
        root = tmp_path / "repo"
        # The daemon finds benchmarks/ relative to the package it runs from.
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            root / "src" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        bench_dir = build_tree(root)
        can(bench_dir, sleep_s=0.08)  # 25 workers: a cycle takes 2 s at least
        daemon = DaemonHarness(
            tmp_path / "state", bench_interval=0.1, src_dir=root / "src"
        ).start()
        try:
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                jobs = daemon.client.jobs()
                assert all(job["kind"] == "bench" for job in jobs)
                unfinished = [
                    job for job in jobs if job["state"] in ("queued", "running")
                ]
                assert len(unfinished) <= 1, jobs
                time.sleep(0.1)
            # 30 ticks went by; a job per tick is what used to happen.
            assert 1 <= len(daemon.client.jobs()) <= 3
        finally:
            daemon.stop()


    def test_running_bench_job_can_be_cancelled(self, bench_dir, tmp_path):
        """``repro cancel`` on a bench job takes effect within seconds, not
        at the end of the cycle, and the daemon stays serviceable."""
        can(bench_dir, sleep_s=30.0)
        daemon = DaemonHarness(tmp_path / "state").start()
        try:
            job = daemon.client.submit(
                {"kind": "bench", "params": {"bench_dir": str(bench_dir)}}
            )
            stream = daemon.client.watch(job)
            for event in stream:
                if event["event"] == "log":  # "bench: .../run.py --repeat 1 ..."
                    break
            started = time.monotonic()
            assert daemon.client.cancel(job)["cancelling"]
            assert list(stream)[-1] == {"event": "end", "job": job, "state": "cancelled"}
            assert time.monotonic() - started < 8.0
            assert harness_processes(bench_dir) == []
            assert trajectory(bench_dir) == []
            daemon.client.ping()
        finally:
            daemon.stop()


class TestTrajectoryStore:
    RECORD = {
        "ts": 12.5,
        "commit": "abc1234",
        "base": None,
        "ok": True,
        "rows": [],
        "medians": {"clique_tdown/job_wall_s": 0.4},
    }

    def test_append_and_records_round_trip(self, tmp_path):
        store = TrajectoryStore(tmp_path / "results" / "trajectory.jsonl")
        store.append(self.RECORD)
        assert store.records() == [self.RECORD]

    def test_damaged_lines_skipped(self, tmp_path):
        store = TrajectoryStore(tmp_path / "trajectory.jsonl")
        store.append(self.RECORD)
        with store.path.open("a") as handle:
            handle.write('{"crc": 1, "record"')  # torn mid-write
        store.append(self.RECORD)
        assert len(store.records()) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert TrajectoryStore(tmp_path / "absent.jsonl").records() == []
