"""§3.2 validation: measured loop lifetimes vs the (m-1)·M bound.

Not a figure in the paper, but the analytical claim its figures rest on.  We
build the ring-with-core topology (an m-ring handed a failure that forces a
counterclockwise resolution walk), measure the longest single-loop lifetime
from the FIB history, and compare it against the worst-case bound
``(m - 1) × M_max`` (jitter makes the effective M at most the configured
value here, since jitter factors are <= 1).
"""

from __future__ import annotations

from typing import List, Sequence

from ...bgp import BgpConfig
from ...core import ObservationCheck, longest_loop_duration, worst_case_loop_duration
from ...topology import ring_with_core
from ..config import RunSettings
from ..report import FigureData
from ..runner import run_experiment
from ..scenarios import custom_tlong


def theory_bound_figure(
    ring_sizes: Sequence[int] = (3, 4, 5, 6, 8),
    mrai: float = 10.0,
    backup_len: int = 2,
    seeds: Sequence[int] = (0, 1, 2),
    settings: RunSettings = RunSettings(),
) -> FigureData:
    """Longest measured loop lifetime vs the §3.2 worst-case bound.

    The scenario: nodes ``0..m-1`` form a ring; ring node 0 holds the
    primary link to the destination (node ``m``) and ring node 1 heads a
    longer backup chain to it.  Failing the primary link forces the ring
    members through stale paths via each other — the Figure 2 situation —
    and each single loop among the m ring members must resolve within
    ``(m - 1) × M`` seconds.
    """
    measured: List[float] = []
    bounds: List[float] = []
    slack = 2.0  # processing + propagation allowance beyond the MRAI terms
    config = BgpConfig.standard(mrai)
    for m in ring_sizes:
        topo = ring_with_core(m, backup_len)
        destination = m
        worst = 0.0
        for seed in seeds:
            scenario = custom_tlong(
                topo,
                destination,
                failed_link=(0, m),
                name=f"ring{m}-tlong",
            )
            run = run_experiment(scenario, config, settings=settings, seed=seed)
            worst = max(worst, longest_loop_duration(run.result.loop_intervals))
        measured.append(worst)
        bounds.append(worst_case_loop_duration(m, mrai))

    figure = FigureData(
        figure_id="theory",
        title="Longest loop lifetime vs the (m-1)*M bound (ring scenarios)",
        x_label="ring_size",
        xs=[float(m) for m in ring_sizes],
        series={"measured_max_loop": measured, "bound": bounds},
    )
    violations = [
        (m, got, bound)
        for m, got, bound in zip(ring_sizes, measured, bounds)
        if got > bound + slack
    ]
    figure.checks.append(
        ObservationCheck(
            name="theory-bound-respected",
            holds=not violations,
            detail=(
                "all measured loop lifetimes within (m-1)*M + slack"
                if not violations
                else f"violations at {violations}"
            ),
        )
    )
    return figure
