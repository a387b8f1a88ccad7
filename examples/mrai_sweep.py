#!/usr/bin/env python
"""Observations 1 & 2: everything scales linearly with the MRAI timer.

Sweeps the MRAI value on a clique Tdown scenario and prints the four §4.2
metrics per point, then fits lines to verify:

* convergence time and overall looping duration grow linearly with M,
* the number of TTL exhaustions grows linearly with M,
* the looping ratio stays (almost) constant.

Usage::

    python examples/mrai_sweep.py [clique_size]
"""

import sys

from repro.core import check_linear_in_mrai, check_ratio_constant
from repro.experiments import clique_tdown_trial
from repro.experiments.figures.common import mrai_sweep
from repro.util import render_series


def main() -> None:
    clique_size = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    mrai_values = [5.0, 10.0, 20.0, 30.0, 45.0]
    seeds = (0, 1)

    print(
        f"Sweeping MRAI over {mrai_values} on a {clique_size}-clique Tdown "
        f"({len(seeds)} trials per point)..."
    )
    points = mrai_sweep(mrai_values, clique_tdown_trial, clique_size, seeds)

    def series(metric: str):
        """The metric's trial mean at each MRAI value."""
        return [point.metrics[metric] for point in points]

    table = render_series(
        "mrai",
        mrai_values,
        [
            ("convergence_s", series("convergence_time")),
            ("looping_s", series("looping_duration")),
            ("ttl_exhaustions", series("ttl_exhaustions")),
            ("looping_ratio", series("looping_ratio")),
        ],
        title=f"Tdown on clique-{clique_size}, metrics vs MRAI",
    )
    print("\n" + table + "\n")

    for metric, label in [
        ("convergence_time", "convergence time"),
        ("looping_duration", "looping duration"),
        ("ttl_exhaustions", "TTL exhaustions"),
    ]:
        check = check_linear_in_mrai(mrai_values, series(metric))
        print(f"  {label:18s}: {check}")
    ratio_check = check_ratio_constant(series("looping_ratio"))
    print(f"  {'looping ratio':18s}: {ratio_check}")


if __name__ == "__main__":
    main()
