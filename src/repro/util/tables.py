"""ASCII table rendering for experiment reports.

``repro figure`` prints each committed result as a plain table (the series
the paper plots, or one row per configuration); this module keeps that
formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_cell(value: object, precision: int = 2) -> str:
    """Human formatting: floats rounded, None blanked, rest stringified."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render a fixed-width table with a header rule.

    >>> print(render_table(["n", "time"], [[5, 1.5], [10, 3.25]]))
    n  | time
    ---+-----
    5  | 1.50
    10 | 3.25
    """
    text_rows: List[List[str]] = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_line(row) for row in text_rows)
    return "\n".join(lines)


def render_series(
    x_label: str,
    xs: Sequence[object],
    series: Sequence[tuple],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render several y-series against a shared x-axis.

    ``series`` is a sequence of ``(name, values)`` pairs; every values list
    must align with ``xs``.  This is the shape of every figure in the paper:
    an x-sweep (topology size or MRAI) with one line per metric or variant.
    """
    for name, values in series:
        if len(values) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(values)} points for {len(xs)} xs"
            )
    headers = [x_label] + [name for name, _values in series]
    rows = [
        [x] + [values[index] for _name, values in series]
        for index, x in enumerate(xs)
    ]
    return render_table(headers, rows, title=title, precision=precision)
