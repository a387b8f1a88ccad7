"""Shared plumbing for the figure benchmarks.

Each benchmark regenerates one paper figure through its driver, saves the
rendered series table under ``benchmarks/results/``, records headline
numbers in the pytest-benchmark ``extra_info``, and asserts the figure's
shape checks.  EXPERIMENTS.md is written from these result files.

Long parallel studies journal their trials through the library's one
entry point, :func:`repro.experiments.checkpointed_sweep` (see
``bench_churn.py``); ``python -m repro figure <id> --jobs N`` runs any
figure driver on the parallel sweep executor.

Committed vs machine-written results
------------------------------------

``benchmarks/results/`` holds two kinds of file with different ownership:

* **Committed** — the rendered ``*.txt`` figure tables that
  :func:`save_figure` writes.  EXPERIMENTS.md is generated from these;
  refreshing one is a reviewed change.
* **Machine-written** (gitignored) — per-machine state no commit should
  carry: sweep trial journals (``*.trials.jsonl`` and their ``.lock``
  files) and the continuous-bench files of :mod:`repro.service.bench`
  (``perf_trajectory.jsonl``, ``E2E_candidate.json``, ``E2E_base.json``).

Timing is not measured here at all: ``benchmarks/e2e`` is the repository's
one benchmark, and ``BENCHMARK.json`` holds its bounds.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def save_figure(figure) -> Path:
    """Write the figure's rendered table to benchmarks/results/<id>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{figure.figure_id}.txt"
    path.write_text(figure.render() + "\n", encoding="utf-8")
    return path


def record(benchmark, figure, require_checks: bool = True) -> None:
    """Attach the figure's data to the benchmark record and save it.

    ``require_checks=False`` records check outcomes without failing the
    benchmark — used where the paper's claim is known not to reproduce on
    synthetic topologies (documented in EXPERIMENTS.md).
    """
    save_figure(figure)
    benchmark.extra_info["figure"] = figure.figure_id
    benchmark.extra_info["xs"] = list(figure.xs)
    for name, values in figure.series.items():
        benchmark.extra_info[name] = [round(v, 3) for v in values]
    benchmark.extra_info["checks"] = [str(check) for check in figure.checks]
    print()
    print(figure.render())
    if require_checks:
        failures = figure.check_failures()
        assert not failures, "; ".join(str(f) for f in failures)
