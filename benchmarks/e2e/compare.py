"""Compare two result documents of ``run.py --output``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first set of runs), B the change.
One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B / A, the bound ``BENCHMARK.json`` fixes, and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the runs of one side spread (third minus first quartile, as a
                share of the median) wider than the bound, and it is not the
                case that every run of B reads better than every run of A

Quartiles need several runs on each side (``run.py --repeat R``); with one
run a side has no spread and a row is never ``unresolved``.  Counts and
``sim_digest`` are compared exactly.  The exit code is 1 on any ``worse`` row
or any mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from run import SPEC, quartiles


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """The row's verdict from the runs of both sides."""
    sign = 1.0 if better == "lower" else -1.0
    if max(sign * value for value in b) < min(sign * value for value in a):
        return "ok"
    for runs in (a, b):
        q1, median, q3 = quartiles(runs)
        if median and (q3 - q1) / abs(median) > bound:
            return "unresolved"
    base, change = statistics.median(a), statistics.median(b)
    worse_by = sign * (change - base) / abs(base)
    return "worse" if worse_by > bound else "ok"


def exact_mismatches(name: str, a: Dict, b: Dict) -> List[str]:
    """Digests and counts of one workload that differ between the documents."""
    found = []
    for which in ("untraced", "traced"):
        runs_a, runs_b = a["detail"].get(which), b["detail"].get(which)
        if not runs_a or not runs_b:
            continue
        for key in ("sim_digest", "events", "route_updates"):
            values = {json.dumps(run.get(key)) for run in runs_a + runs_b}
            if len(values) > 1:
                found.append(f"{name}: {which} {key} differs")
    for metric, reading in a["metrics"].items():
        other = b["metrics"].get(metric)
        if reading["unit"] == "count" and other and reading["runs"] != other["runs"]:
            found.append(
                f"{name}: {metric} {reading['runs']} against {other['runs']}"
            )
    return found


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in paths)
    print(f"A = {paths[0]}  commit {a['meta']['commit'][:12]}  seed {a['meta']['seed']}")
    print(f"B = {paths[1]}  commit {b['meta']['commit'][:12]}  seed {b['meta']['seed']}")
    header = (
        f"{'workload':14s} {'metric':20s} {'A median [q1 .. q3]':>34s} "
        f"{'B median [q1 .. q3]':>34s} {'B / A':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    bad = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in SPEC["end_to_end"]:
            runs_a = entry_a["metrics"][metric["name"]]["runs"]
            runs_b = entry_b["metrics"][metric["name"]]["runs"]
            row = verdict(runs_a, runs_b, metric["better"], metric["bound"])
            cells = []
            for runs in (runs_a, runs_b):
                q1, median, q3 = quartiles(runs)
                cells.append(f"{median:.5g} [{q1:.5g} .. {q3:.5g}]")
            ratio = statistics.median(runs_b) / statistics.median(runs_a)
            print(
                f"{name:14s} {metric['name']:20s} {cells[0]:>34s} {cells[1]:>34s} "
                f"{ratio:7.3f} {metric['bound']:6.2f}  {row}"
            )
            if row == "worse":
                bad.append(f"{name}: {metric['name']} is worse by more than its bound")
        for entry in (entry_a, entry_b):
            if entry["failed"]:
                bad.append(f"{name}: {entry['failed']} of {entry['attempted']} jobs failed")
        bad.extend(exact_mismatches(name, entry_a, entry_b))
    for line in bad:
        print(f"MISMATCH {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
