"""Rendering experiment output as the tables the paper plots.

A :class:`FigureData` is the library's representation of one paper figure:
an x-axis, named series, and optional observation checks.  A
:class:`TableData` is its sibling for table-shaped studies (one row per
configuration, or a bare list of verdicts).  The drivers under
:mod:`repro.experiments.figures` build both; ``repro figure`` and the
examples print them.  :func:`describe_run` renders one run's complete story
(metrics, churn, individual loops) as text, and :meth:`FigureData.to_json`
exports series for external plotting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import LoopStatistics, ObservationCheck, UpdateChurn
from ..errors import AnalysisError
from ..util.tables import render_series, render_table
from .runner import ExperimentRun


@dataclass
class FigureData:
    """One reproduced figure: x-axis, series, and shape checks."""

    figure_id: str
    title: str
    x_label: str
    xs: List[float]
    series: Dict[str, List[float]]
    checks: List[ObservationCheck] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.xs):
                raise AnalysisError(
                    f"series {name!r} has {len(values)} points, x-axis has "
                    f"{len(self.xs)}"
                )

    def render(self, precision: int = 2) -> str:
        """The figure as an ASCII table plus its observation verdicts."""
        body = render_series(
            self.x_label,
            self.xs,
            [(name, values) for name, values in self.series.items()],
            title=f"{self.figure_id}: {self.title}",
            precision=precision,
        )
        if not self.checks:
            return body
        verdicts = "\n".join(f"  {check}" for check in self.checks)
        return f"{body}\n{verdicts}"

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The figure as JSON (id, title, axis, series, check verdicts).

        Non-finite values (a normalized series over a zero baseline) are
        serialized as strings so the output stays valid JSON everywhere.
        """

        def clean(value: float):
            if value != value or value in (float("inf"), float("-inf")):
                return str(value)
            return value

        payload = {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "xs": [clean(x) for x in self.xs],
            "series": {
                name: [clean(v) for v in values]
                for name, values in self.series.items()
            },
            "checks": [
                {"name": c.name, "holds": c.holds, "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=indent)

    def plot(self) -> str:
        """The figure as an ASCII chart (finite points only)."""
        from ..util.plot import ascii_chart

        drawable = [
            (name, values)
            for name, values in self.series.items()
            if all(v == v and abs(v) != float("inf") for v in values)
        ]
        if not drawable:
            raise AnalysisError(f"figure {self.figure_id} has no plottable series")
        return ascii_chart(
            self.xs,
            drawable,
            title=f"{self.figure_id}: {self.title}",
        )


@dataclass
class TableData:
    """One table-shaped study: a titled table, or a bare list of verdicts.

    With ``headers`` it renders like a figure — the table, then one
    indented verdict line per check.  Without, the checks *are* the body,
    one per line, followed by ``notes`` (the Observation studies).
    """

    figure_id: str
    title: str = ""
    headers: Sequence[str] = ()
    rows: List[list] = field(default_factory=list)
    checks: List[ObservationCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        if not self.headers:
            return "\n".join([str(check) for check in self.checks] + self.notes)
        table = render_table(self.headers, self.rows, title=self.title)
        return "\n".join([table] + [f"  {check}" for check in self.checks])


def _event_label(entry) -> str:
    """A schedule entry's event name (``tdown``...), else its class name."""
    return entry.kind.value if entry.kind is not None else type(entry).__name__


def describe_run(run: ExperimentRun) -> str:
    """One run's full story as readable text.

    Combines the §4.2 metrics with the churn analysis and the per-loop
    statistics.  Churn needs the message trace, so run the experiment with
    ``keep_network=True`` for the complete report; without it the churn
    section is omitted.
    """
    result = run.result
    lines = [
        f"scenario  : {run.scenario.name}  "
        f"({run.bgp_config.variant_name}, MRAI {run.bgp_config.mrai}s, "
        f"seed {run.seed})",
        f"failure   : t={run.failure_time:.2f}s",
        *(
            f"event     : {_event_label(entry)} at +{entry.at:g}s"
            for entry in run.scenario.events
        ),
        "",
        f"convergence time         : {result.convergence_time:10.2f} s",
        f"overall looping duration : {result.overall_looping_duration:10.2f} s",
        f"TTL exhaustions          : {result.ttl_exhaustions:10d}",
        f"packets sent             : {result.packets_sent:10d}",
        f"looping ratio            : {result.looping_ratio:10.1%}",
        f"delivered ratio          : {result.dataplane.delivery_ratio:10.1%}",
        f"dropped (no route)       : {result.dataplane.dropped_no_route:10d}",
    ]
    if run.network is not None:
        churn = UpdateChurn.from_trace(run.network.trace, run.failure_time)
        lines += [
            "",
            f"updates sent             : {churn.total_updates:10d} "
            f"({churn.announcements} announcements, "
            f"{churn.withdrawals} withdrawals)",
            f"busiest senders          : "
            + ", ".join(f"AS{n} x{c}" for n, c in churn.busiest_senders(3)),
        ]
        spacing = churn.min_pair_spacing()
        if spacing is not None:
            lines.append(f"min same-pair spacing    : {spacing:10.2f} s")
    stats = LoopStatistics.from_intervals(
        result.loop_intervals, failure_time=run.failure_time
    )
    lines += ["", "individual loops:"]
    lines += [f"  {line}" for line in stats.describe().splitlines()]
    return "\n".join(lines)
