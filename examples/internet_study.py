#!/usr/bin/env python
"""Transient loops on Internet-like AS graphs: the paper's "next steps".

The paper measures aggregate looping metrics and names per-loop statistics
(size and duration of individual loops) as future work.  This example runs
both failure events on an Internet-like topology and reports exactly those
statistics from the FIB history: every distinct loop, its size, lifetime,
and packet toll — plus the loop-size histogram that prior measurement work
(Hengartner et al.) reported for a real backbone ("more than half of the
loops involved only two nodes").

Usage::

    python examples/internet_study.py [size] [seed]
"""

import sys

from repro import BgpConfig, RunSettings, run_experiment
from repro import tdown_internet, tlong_internet
from repro.core import LoopStatistics
from repro.util import render_table


def study(scenario, seed):
    run = run_experiment(scenario, BgpConfig.standard(30.0), RunSettings(), seed=seed)
    result = run.result
    print(
        f"\n{scenario.name}: convergence {result.convergence_time:.1f}s, "
        f"looping {result.overall_looping_duration:.1f}s, "
        f"ratio {result.looping_ratio:.1%}, "
        f"{result.distinct_loop_count} distinct loops"
    )
    if not result.loop_intervals:
        print("  (no loops observed)")
        return

    rows = [
        [
            " -> ".join(str(n) for n in interval.cycle),
            interval.size,
            interval.start - run.failure_time,
            interval.duration,
        ]
        for interval in sorted(
            result.loop_intervals, key=lambda i: -i.duration
        )[:10]
    ]
    print(
        render_table(
            ["loop", "size", "formed_after_s", "lifetime_s"],
            rows,
            title="Longest-lived individual loops",
        )
    )
    histogram = LoopStatistics.from_intervals(result.loop_intervals).size_histogram()
    total = sum(histogram.values())
    print("  Loop size distribution:")
    for size in sorted(histogram):
        share = histogram[size] / total
        print(f"    {size}-node loops: {histogram[size]:3d}  ({share:.0%})")


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    print(
        f"Studying transient loops on a synthetic Internet-like AS graph "
        f"(n={size}, seed={seed})."
    )
    study(tdown_internet(size, seed=seed), seed)
    study(tlong_internet(size, seed=seed), seed)


if __name__ == "__main__":
    main()
