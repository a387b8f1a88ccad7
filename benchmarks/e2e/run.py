"""The repository's benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1|both]] [--repeat R] [--smoke]
        [--output PATH]

Every workload runs in its own fresh interpreter (``worker.py``), one after
another.  ``--trace 0`` (the default) times jobs with tracing off and prints
the end-to-end metrics; ``--trace 1`` sends jobs through the staged, wrapped
replica and prints the per-layer metrics; ``--trace`` alone or ``--trace
both`` does one after the other.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with several
workloads its metric names are ``<workload>/<metric>``.  The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_RUNS = 5
"""Fresh interpreters that set a workload up; ``setup_s`` is their median."""
WORKER_TIMEOUT_S = 170.0
STOP_TIMEOUT_S = 25.0


class WorkerFailed(Exception):
    """A worker ended without a result."""


def run_worker(arguments: List[str]) -> Dict:
    """One ``worker.py`` to its end; returns the document it printed.

    The worker leads a process group of its own, so that whatever it
    started — the service daemon, pool workers — can be ended with it.
    """
    command = [sys.executable, str(WORKER), *arguments, "--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        try:
            output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"no result within {WORKER_TIMEOUT_S:g} s") from None
    finally:
        stop(process)
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {process.returncode}")
    return json.loads(lines[-1])


def stop(process: subprocess.Popen) -> None:
    """End the worker and then every process left in its group."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile (all the value when alone)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, args, passes: List[int]) -> Dict:
    """The passes of one workload, as one entry of the result document."""
    base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    base += ["--meta", json.dumps(args.meta)]
    if args.smoke:
        base.append("--smoke")
    entry: Dict = {"attempted": 0, "failed": 0, "metrics": {}, "detail": {}}

    def record(document: Dict) -> None:
        entry["attempted"] += document["attempted"]
        entry["failed"] += document["failed"]
        for metric, reading in document["metrics"].items():
            runs = entry["metrics"].setdefault(metric, {"unit": reading["unit"], "runs": []})
            runs["runs"].append(reading["value"])

    for trace in passes:
        for _ in range(args.repeat if trace == 0 else 1):
            setups = []
            if trace == 0:
                for _probe in range((2 if args.smoke else SETUP_RUNS) - 1):
                    setups.append(run_worker(base + ["--setup-only"])["setup_s"])
            document = run_worker(base + ["--trace", str(trace)])
            if trace == 0:
                setups.append(document["setup_s"])
                document["metrics"]["setup_s"] = {
                    "value": statistics.median(setups),
                    "unit": "s",
                }
                document["detail"]["setup_samples_s"] = setups
            record(document)
            entry["detail"].setdefault("traced" if trace else "untraced", []).append(
                document["detail"]
            )
    for reading in entry["metrics"].values():
        reading["value"] = statistics.median(reading["runs"])
    return entry


def report(name: str, entry: Dict) -> None:
    """Every metric by name with its unit, and the spread of the job times."""
    print(f"== {name}: {entry['attempted']} jobs attempted, {entry['failed']} failed")
    for untraced in entry["detail"].get("untraced", []):
        samples = sorted(untraced["job_wall_samples_s"])
        q1, median, q3 = quartiles(samples)
        # The highest percentile that still has ten samples beyond it.
        tail = (
            f"p{100 * (len(samples) - 10) // len(samples)}={samples[-11]:.4f}"
            if len(samples) >= 20
            else "no percentile above the median has ten samples beyond it"
        )
        print(
            f"   job times: n={len(samples)} q1={q1:.4f} median={median:.4f} "
            f"q3={q3:.4f} s; {tail}"
        )
        print(f"   sim_digest {untraced['sim_digest']}")
        if "note" in untraced:
            print(f"   note: {untraced['note']}")
    for metric, reading in entry["metrics"].items():
        q1, _median, q3 = quartiles(reading["runs"])
        spread = f"  [{q1:.6g} .. {q3:.6g}]" if len(reading["runs"]) > 1 else ""
        print(f"   {metric:40s} {reading['value']:>14.6g} {reading['unit']}{spread}")
    for details in entry["detail"].values():
        for detail in details:
            for why in detail["failures"]:
                print(f"   FAILED {why}")


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload; the median is reported")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, two jobs, both passes")
    parser.add_argument("--output", type=Path, help="write the result document here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds, args.trace = 0.0, "both"
    passes = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    # Ctrl-C and SIGTERM both unwind through run_worker, which ends the
    # worker's whole process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    selected = args.workload or names
    args.meta = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "trace": args.trace,
    }
    document = {"meta": args.meta, "workloads": {}}
    for name in selected:
        try:
            entry = run_workload(name, args, passes)
        except WorkerFailed as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print(f"run.py: interrupted during {name}", file=sys.stderr)
            return 130
        document["workloads"][name] = entry
        report(name, entry)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(document, indent=1), encoding="utf-8")

    entries = document["workloads"]
    failed = sum(entry["failed"] for entry in entries.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(entry["attempted"] for entry in entries.values()),
                "failed": failed,
                "metrics": {
                    (metric if len(entries) == 1 else f"{name}/{metric}"): {
                        "value": reading["value"],
                        "unit": reading["unit"],
                    }
                    for name, entry in entries.items()
                    for metric, reading in entry["metrics"].items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
