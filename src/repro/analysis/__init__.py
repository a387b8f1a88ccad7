"""Simulation correctness tooling.

Two prongs guard the repository's reproducibility contract:

* :mod:`repro.analysis.lint` — a static AST pass with
  simulation-specific determinism rules (no wall clock, no unseeded
  randomness, no unordered iteration on emission paths, no mutable
  defaults, no float timestamp equality), run as ``python -m repro
  lint`` and in CI;
* :mod:`repro.analysis.sanitizers` — opt-in runtime invariant checkers
  (causality, per-channel FIFO, RIB coherence) wired into the engine,
  net, and BGP layers as observers on the scheduler's one observation
  seam; plus
  :mod:`repro.analysis.determinism`, the dual-run harness that proves a
  scenario bit-for-bit reproducible under a fixed seed.

A third prong reasons about *protocol* correctness rather than simulator
correctness: :mod:`repro.analysis.stability` decides statically — via
dispute-wheel search and Gao-Rexford structural checks — whether a
scenario's policies can oscillate forever, before a single event is
scheduled.
"""

from .determinism import (
    DeterminismReport,
    RunFingerprint,
    check_determinism,
    fingerprint_run,
)
from .lint import RULES, LintViolation, lint_paths, lint_source
from .sanitizers import (
    CausalitySanitizer,
    FifoSanitizer,
    RibCoherenceSanitizer,
    build_suite,
)
from .stability import (
    DisputeWheel,
    PermittedPath,
    PolicyGraph,
    SearchLimits,
    StabilityReport,
    Verdict,
    certify,
    certify_scenario,
    extract_policy_graph,
    find_dispute_wheel,
)

__all__ = [
    "CausalitySanitizer",
    "DeterminismReport",
    "DisputeWheel",
    "FifoSanitizer",
    "LintViolation",
    "PermittedPath",
    "PolicyGraph",
    "RULES",
    "RibCoherenceSanitizer",
    "RunFingerprint",
    "SearchLimits",
    "StabilityReport",
    "Verdict",
    "build_suite",
    "certify",
    "certify_scenario",
    "check_determinism",
    "extract_policy_graph",
    "find_dispute_wheel",
    "fingerprint_run",
    "lint_paths",
    "lint_source",
]
