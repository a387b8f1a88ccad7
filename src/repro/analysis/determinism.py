"""The determinism harness: run a scenario twice, diff the trace digests.

The repository's reproducibility contract is that a run is a pure
function of ``(code, scenario, config, seed)``.  This module checks the
contract end to end: it executes the same experiment N times (default
twice) under one seed, reduces each run to a SHA-256 digest over
everything observable — the full control-plane message trace, the FIB
change log, and the summary metrics — and compares the digests.

Any divergence means nondeterminism crept past the static linter
(:mod:`repro.analysis.lint`): an unseeded draw, hash-order iteration on
an emission path, garbage-collection-dependent identity ordering.  The
report pinpoints the first trace record where two runs disagree.

Used by ``python -m repro determinism`` and the CI smoke check.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from ..bgp import BgpConfig
from ..errors import AnalysisError
from ..experiments.config import RunSettings
from ..experiments.scenarios import Scenario
from ..experiments.sweep import TrialTask, run_trials, trial_runner

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..experiments.resilience import ResiliencePolicy


@dataclass(frozen=True)
class RunFingerprint:
    """One run reduced to comparable artifacts."""

    digest: str
    trace_lines: Tuple[str, ...]
    fib_lines: Tuple[str, ...]
    summary_line: str

    @property
    def messages(self) -> int:
        return len(self.trace_lines)

    @property
    def fib_changes(self) -> int:
        return len(self.fib_lines)


@dataclass(frozen=True)
class DeterminismReport:
    """The verdict of an N-fold dual-run comparison."""

    scenario_name: str
    seed: int
    fingerprints: Tuple[RunFingerprint, ...] = field(default_factory=tuple)

    @property
    def identical(self) -> bool:
        """True when every run produced the same digest."""
        digests = {fp.digest for fp in self.fingerprints}
        return len(digests) <= 1

    @property
    def digest(self) -> str:
        """The common digest (raises when runs diverged)."""
        if not self.identical:
            raise AnalysisError("runs diverged; there is no common digest")
        return self.fingerprints[0].digest

    def first_divergence(self) -> Optional[str]:
        """Where the first two differing runs part ways, or ``None``.

        Compares the baseline run against the first run with a different
        digest, line by line, across the trace, the FIB log, and the
        summary.
        """
        if self.identical:
            return None
        base = self.fingerprints[0]
        other = next(
            fp for fp in self.fingerprints[1:] if fp.digest != base.digest
        )
        for kind, a_lines, b_lines in (
            ("trace", base.trace_lines, other.trace_lines),
            ("fib", base.fib_lines, other.fib_lines),
            ("summary", (base.summary_line,), (other.summary_line,)),
        ):
            for index, (a, b) in enumerate(zip(a_lines, b_lines)):
                if a != b:
                    return (
                        f"{kind}[{index}]: run0={a!r} vs run1={b!r}"
                    )
            if len(a_lines) != len(b_lines):
                return (
                    f"{kind} length: run0 has {len(a_lines)} records, "
                    f"run1 has {len(b_lines)}"
                )
        return "digests differ but artifacts match (non-hashed state diverged)"

    def render(self) -> str:
        lines = [
            f"determinism check: {self.scenario_name} seed={self.seed} "
            f"runs={len(self.fingerprints)}"
        ]
        for index, fp in enumerate(self.fingerprints):
            lines.append(
                f"  run{index}: digest={fp.digest[:16]}… "
                f"messages={fp.messages} fib-changes={fp.fib_changes}"
            )
        if self.identical:
            lines.append("  IDENTICAL — bit-for-bit reproducible")
        else:
            lines.append(f"  DIVERGED — {self.first_divergence()}")
        return "\n".join(lines)


def fingerprint_run(run) -> RunFingerprint:
    """Reduce an :class:`~repro.experiments.runner.ExperimentRun`."""
    trace_lines = tuple(
        f"{record.time!r}|{record.src}|{record.dst}|{record.message!r}"
        for record in run.network.trace
    ) if run.network is not None else ()
    fib_lines = tuple(
        f"{change.time!r}|{change.node}|{change.prefix}|{change.next_hop}"
        for change in run.fib_log
    )
    summary = run.result.summary_row()
    summary_line = "|".join(
        f"{key}={summary[key]!r}" for key in sorted(summary)
    )
    hasher = hashlib.sha256()
    for line in trace_lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    hasher.update(b"--fib--\n")
    for line in fib_lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    hasher.update(b"--summary--\n")
    hasher.update(summary_line.encode())
    return RunFingerprint(
        digest=hasher.hexdigest(),
        trace_lines=trace_lines,
        fib_lines=fib_lines,
        summary_line=summary_line,
    )


def _constant_scenario(x: float, seed: int, *, scenario: Scenario) -> Scenario:
    """``make_scenario`` that ignores x and seed (module-level, so a
    ``functools.partial`` of it can follow a trial into a worker)."""
    return scenario


def check_determinism(
    scenario: Scenario,
    config: BgpConfig,
    settings: RunSettings = RunSettings(),
    seed: int = 0,
    runs: int = 2,
    jobs: int = 1,
    policy: Optional["ResiliencePolicy"] = None,
) -> DeterminismReport:
    """Run ``scenario`` ``runs`` times under one seed and diff the digests.

    ``settings.sanitize`` composes naturally: with it set, every run also
    executes under the full sanitizer suite, so the check covers both
    reproducibility and runtime invariants in one pass.

    Every repetition is a ``digests=True`` trial run by a private
    :func:`~repro.experiments.sweep.trial_runner`: run 0 in this process —
    the sequential baseline — and the rest with the caller's ``jobs`` and
    ``policy``, which mean exactly what they mean to a sweep.  ``jobs > 1``
    (or ``0`` for one per CPU) strengthens the check: identical digests
    then certify that a trial is bit-identical whether it runs in-process
    or in a sweep worker, the guarantee ``sweep(..., jobs=N)`` relies on;
    with a ``policy`` a worker killed mid-repetition is retried and must
    *still* match the baseline.  A repetition that fails, or exhausts its
    retries, raises its error (a determinism check cannot compare digests
    it never got).
    """
    if runs < 2:
        raise AnalysisError(f"a determinism check needs >= 2 runs, got {runs}")

    def repetitions(count: int, workers: int):
        # One x per repetition, so the runner cannot merge them; the
        # scenario factory ignores it.
        make_scenario = functools.partial(_constant_scenario, scenario=scenario)
        tasks = [
            TrialTask(x, seed, make_scenario, config, settings, digests=True)
            for x in range(count)
        ]
        with trial_runner(workers, policy):
            return run_trials(tasks)

    others = repetitions(runs - 1, jobs)  # first: it validates ``jobs``
    trials = repetitions(1, 1) + others
    return DeterminismReport(
        scenario_name=scenario.name,
        seed=seed,
        fingerprints=tuple(trial.fingerprint for trial in trials),
    )
