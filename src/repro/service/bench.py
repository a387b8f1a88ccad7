"""Continuous benchmarking: one ``benchmarks/e2e`` cycle per bench job.

A cycle runs ``benchmarks/e2e/run.py --repeat R --output
<results>/E2E_candidate.json`` in a fresh interpreter (benchmark numbers must
not inherit this process's warmed-up state), gates it with ``compare.py
<results>/E2E_base.json <candidate>`` — the bounds are ``BENCHMARK.json``'s,
nothing here knows them — and appends one record to the durable log
``<results>/perf_trajectory.jsonl``: ``ts``, ``commit`` (the candidate's
``meta``), ``base`` (the commit gated against, ``None`` on a first cycle),
``ok``, the ``worse``/``MISMATCH`` ``rows`` ``compare.py`` printed, every
``<workload>/<metric>`` median, and ``error`` when a harness script failed.

The base is the last passing cycle *on this machine*: the candidate becomes
``E2E_base.json`` (through :func:`~repro.experiments.journal.write_atomically`)
when the cycle passes or no base exists yet; a failing cycle leaves the base
in place (delete it to re-base after an intended change).

A cycle can be cancelled: ``should_cancel`` is polled about once a second
while a harness script runs; a positive answer stops the script the way a
timeout does and raises :class:`~repro.errors.JobCancelled` — no candidate,
no record, the base untouched.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from ..errors import JobCancelled, ServiceError
from ..experiments.journal import DurableLog, write_atomically

STOP_GRACE_S = 60.0  # between SIGTERM and SIGKILL for a stopped harness
CANCEL_POLL_S = 1.0  # how often a running harness script asks should_cancel


def default_bench_dir() -> Path:
    """The repository's ``benchmarks/`` directory, located relative to
    this source tree (``src/repro/service/bench.py`` → repo root)."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


class TrajectoryStore:
    """Append-only, CRC-framed perf history, one record per bench cycle: a
    :class:`~repro.experiments.journal.DurableLog` of the cycle dicts."""

    def __init__(self, path) -> None:
        self._log = DurableLog(path)
        self.path = self._log.path

    def append(self, record: Dict) -> None:
        # Cycles are minutes apart: hold the writer lock for this one write.
        try:
            self._log.append(record)
        finally:
            self._log.close()

    def records(self) -> List[Dict]:
        """Every intact record, oldest first; damaged lines are skipped."""
        return self._log.replay(dict)[0]


def _run(
    script: Path, arguments: List[str], timeout: float, should_cancel, verdicts=(0,)
):
    """One harness script to its end: ``(exit code, output)``; a timeout or a
    code outside ``verdicts`` raises :class:`~repro.errors.ServiceError`, a
    positive ``should_cancel()`` :class:`~repro.errors.JobCancelled`."""
    process = subprocess.Popen(
        [sys.executable, str(script), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + timeout
    output = None
    while output is None:
        wait = min(CANCEL_POLL_S, max(0.0, deadline - time.monotonic()))
        try:
            output, _ = process.communicate(timeout=wait)
        except subprocess.TimeoutExpired:
            cancelled = should_cancel()
            if not cancelled and time.monotonic() < deadline:
                continue
            # SIGTERM first: run.py then ends its workers' process groups.
            process.terminate()
            try:
                process.communicate(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
            if cancelled:
                raise JobCancelled(f"{script.name} stopped: job cancelled") from None
            raise ServiceError(f"{script.name} timed out after {timeout:g}s") from None
    if process.returncode not in verdicts:
        tail = " / ".join(output.strip().splitlines()[-3:])
        raise ServiceError(f"{script.name} exited {process.returncode}: {tail}")
    return process.returncode, output


def run_bench_cycle(
    repeat: int = 1,
    bench_dir=None,
    results_dir=None,
    publish: Callable[[str], None] = lambda message: None,
    timeout: float = 600.0,
    should_cancel: Callable[[], bool] = lambda: False,
) -> Dict:
    """Run one cycle, append its record to the trajectory, and return it.

    ``timeout`` is seconds per repetition for ``run.py`` (a repetition takes
    about 95 s) and in all for ``compare.py``.  A harness that crashes or
    times out is reported in the record's ``error``, not raised; a cancelled
    cycle raises :class:`~repro.errors.JobCancelled` and leaves no record.
    """
    bench_dir = Path(bench_dir) if bench_dir is not None else default_bench_dir()
    if not bench_dir.is_dir():
        raise ServiceError(f"bench directory {bench_dir} does not exist")
    results_dir = Path(results_dir) if results_dir else bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    candidate = results_dir / "E2E_candidate.json"
    base = results_dir / "E2E_base.json"
    run_py = bench_dir / "e2e" / "run.py"
    record: Dict = {
        "ts": time.time(), "commit": "unknown", "base": None,
        "ok": False, "rows": [], "medians": {},
    }
    publish(f"bench: {run_py} --repeat {repeat} --output {candidate}")
    # A leftover candidate must not be gated as this cycle's measurement.
    candidate.unlink(missing_ok=True)
    try:
        arguments = ["--repeat", str(repeat), "--output", str(candidate)]
        code, _ = _run(run_py, arguments, timeout * repeat, should_cancel)
        document = json.loads(candidate.read_text(encoding="utf-8"))
        record["commit"] = document["meta"]["commit"]
        record["medians"] = {
            f"{workload}/{metric}": reading["value"]
            for workload, entry in document["workloads"].items()
            for metric, reading in entry["metrics"].items()
        }
        if base.exists():
            gated = json.loads(base.read_text(encoding="utf-8"))
            record["base"] = gated["meta"]["commit"]
            compare_py = run_py.with_name("compare.py")
            code, output = _run(
                compare_py, [str(base), str(candidate)], timeout, should_cancel, (0, 1)
            )
            record["rows"] = [
                line
                for line in output.splitlines()
                if line.startswith("MISMATCH ") or line.endswith("  worse")
            ]
            # A crashed interpreter exits 1 too, but names nothing as worse.
            if code == 1 and not record["rows"]:
                crash = output.strip().splitlines()[-1:]
                raise ServiceError(f"compare.py exited 1, no verdict: {crash}")
        record["ok"] = code == 0
    except ServiceError as exc:
        record["error"] = str(exc)
    except JobCancelled:
        candidate.unlink(missing_ok=True)  # nothing was measured
        raise
    if record["ok"]:
        # Neither a killed daemon nor a power loss leaves a torn or empty base.
        write_atomically(base, candidate.read_bytes())
    publish(
        f"bench: commit {record['commit'][:12]} against base "
        f"{(record['base'] or 'none')[:12]}: "
        + (record.get("error") or ("ok" if record["ok"] else "; ".join(record["rows"])))
    )
    TrajectoryStore(results_dir / "perf_trajectory.jsonl").append(record)
    return record
