"""Harness-side wall-clock profiling.

This is the **only** module under ``src/repro`` sanctioned to read the
wall clock: the determinism linter's REP101 rule carves out exactly this
file (see ``RULE_EXEMPT_SUFFIXES`` in :mod:`repro.analysis.lint`).  The
boundary is deliberate — simulation code must be a pure function of
(code, scenario, config, seed), so anything *inside* a run keys off
simulation time; measuring how long the harness takes to execute sweeps
and figures is an observation *about* the harness and lives out here.

Nothing in this module may be imported by engine/net/bgp/dataplane code.
The consumers are benchmarks, the CLI, and sweep drivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple
from contextlib import contextmanager

from ..errors import TelemetryError


@dataclass(frozen=True)
class PhaseTiming:
    """One completed wall-clock phase."""

    name: str
    seconds: float


@dataclass
class PhaseProfiler:
    """Accumulates named wall-clock phases on the harness side.

    Use as a context manager per phase::

        profiler = PhaseProfiler()
        with profiler.phase("sweep"):
            points = sweep(...)
        with profiler.phase("render"):
            figure.render()
        print(profiler.render())

    Re-entering a phase name accumulates into the same bucket, so a
    per-trial loop can reuse one phase.  Nested phases are allowed and
    timed independently.
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list)
    _active: List[str] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (wall clock)."""
        self._active.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._active.pop()
            if name not in self._totals:
                self._totals[name] = 0.0
                self._order.append(name)
            self._totals[name] += elapsed

    def seconds(self, name: str) -> float:
        """Total wall seconds accumulated under ``name``."""
        try:
            return self._totals[name]
        except KeyError:
            raise TelemetryError(f"no phase named {name!r} was recorded") from None

    def timings(self) -> Tuple[PhaseTiming, ...]:
        """All completed phases, in first-entered order."""
        if self._active:
            raise TelemetryError(
                f"cannot summarize while phases are active: {self._active}"
            )
        return tuple(
            PhaseTiming(name=name, seconds=self._totals[name])
            for name in self._order
        )

    @property
    def total_seconds(self) -> float:
        return sum(self._totals.values())

    def render(self, indent: str = "  ") -> str:
        """An aligned text table of phase timings with percentages."""
        timings = self.timings()
        if not timings:
            return f"{indent}(no phases recorded)"
        total = self.total_seconds or 1.0
        width = max(len(t.name) for t in timings)
        lines = [
            f"{indent}{t.name:<{width}} {t.seconds:8.3f}s "
            f"{100.0 * t.seconds / total:5.1f}%"
            for t in timings
        ]
        lines.append(f"{indent}{'total':<{width}} {self.total_seconds:8.3f}s")
        return "\n".join(lines)


def wall_time() -> float:
    """The harness wall clock (monotonic seconds).

    A single choke point so harness code (benchmarks, CLI progress
    output) does not sprinkle raw ``time.perf_counter()`` calls that
    would each need lint triage.
    """
    return time.perf_counter()


@dataclass(frozen=True)
class Stopwatch:
    """A started wall-clock measurement; immutable, read with :meth:`elapsed`."""

    started: float

    @staticmethod
    def start() -> "Stopwatch":
        return Stopwatch(started=wall_time())

    def elapsed(self) -> float:
        return wall_time() - self.started


def time_callable(fn, repeats: int = 1) -> Tuple[float, Optional[object]]:
    """Best-of-``repeats`` wall time for ``fn()`` and its last return value.

    The benchmark helper: best-of-N suppresses scheduler noise without a
    calibration loop.
    """
    if repeats < 1:
        raise TelemetryError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    result: Optional[object] = None
    for _ in range(repeats):
        watch = Stopwatch.start()
        result = fn()
        best = min(best, watch.elapsed())
    return best, result
