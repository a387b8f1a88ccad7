"""The analytical model of §3.2: loop formation, resolution, and bounds.

The paper's worst-case argument, restated: at time *t* node c₁ adopts
``path(c₁, new) = (c₁ c₂ … c_k) · path(c_k, old)`` and an m-node loop
c₁ → c₂ → … → c_m → c₁ forms.  The loop resolves only after c₁'s new path
has propagated counterclockwise (c_m, c_{m-1}, …) far enough for some member
to detect the staleness; each hop of that propagation can be held up to M
seconds by the MRAI timer.  Hence:

* detection at c_k takes up to ``(m - k + 1) × M``,
* the loop's duration is at most ``(m - 1) × M`` (worst case k = 2).

This module provides those bounds plus an abstract round-by-round replay of
the propagation argument, used by tests and the theory benchmark to check the
simulator against the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..bgp.path import AsPath
from ..errors import AnalysisError


def worst_case_loop_duration(m: int, mrai: float) -> float:
    """Upper bound on an m-node loop's lifetime: ``(m - 1) × M`` seconds."""
    if m < 2:
        raise AnalysisError(f"a loop needs at least 2 nodes, got {m}")
    if mrai < 0:
        raise AnalysisError(f"MRAI must be >= 0, got {mrai}")
    return (m - 1) * mrai


def worst_case_detection_delay(m: int, k: int, mrai: float) -> float:
    """Upper bound on when c_k detects the loop: ``(m - k + 1) × M``.

    ``k`` is the index at which c₁'s new path rejoins old state, i.e.
    ``path(c₁, new) = (c₁ … c_k) · path(c_k, old)`` with ``2 <= k <= m``.
    """
    if m < 2:
        raise AnalysisError(f"a loop needs at least 2 nodes, got {m}")
    if not 2 <= k <= m:
        raise AnalysisError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")
    if mrai < 0:
        raise AnalysisError(f"MRAI must be >= 0, got {mrai}")
    return (m - k + 1) * mrai


@dataclass(frozen=True)
class PropagationStep:
    """One hop of the resolution message's counterclockwise journey."""

    node: int          # the loop member (1-based: c_1 .. c_m) now informed
    time_bound: float  # latest time (after loop formation) it can learn
    path: AsPath       # the path it adopts/propagates in the worst case


def resolution_schedule(m: int, k: int, mrai: float) -> List[PropagationStep]:
    """The worst-case §3.2 propagation schedule, step by step.

    Models loop members as ASes ``1..m`` (c₁ = 1).  c₁'s new path reaches
    c_m after up to one MRAI hold; each subsequent member c_{i} adopts
    ``(c_i … c_m) · path(c₁, new)`` and forwards it after up to M more.  The
    schedule ends at c_k, where the path
    ``(c_{k+1} … c_m c_1 … c_k) · path(c_k, old)`` finally contains c_k
    itself and is poison-reversed away, breaking the loop.

    The origin's suffix ``path(c_k, old)`` is abstracted as the empty path;
    only the loop members matter for the bound.
    """
    if not 2 <= k <= m:
        raise AnalysisError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")
    path_c1_new = AsPath.of(range(1, k + 1))  # (c_1 ... c_k) · path(c_k, old)
    steps: List[PropagationStep] = []
    elapsed = 0.0
    # c_1's announcement to c_m — one (possibly MRAI-delayed) message.
    elapsed += mrai
    steps.append(PropagationStep(node=m, time_bound=elapsed, path=path_c1_new))
    # c_m .. c_{k+1} in turn adopt and forward, each up to M later.  The
    # final step informs c_k, whose own AS now appears in the carried path —
    # poison reverse discards it and the loop is resolved.
    carried = path_c1_new
    for member in range(m, k, -1):
        carried = carried.prepend(member)
        elapsed += mrai
        steps.append(
            PropagationStep(node=member - 1, time_bound=elapsed, path=carried)
        )
    return steps
