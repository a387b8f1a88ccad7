"""Measuring persistent oscillation — the loops that never die.

:func:`~repro.experiments.runner.run_experiment` *requires* quiescence: it
runs warm-up to completion before injecting the event, and a scenario that
never converges (BAD-GADGET has no stable state at all) would only ever
exhaust its budget there.  This module is the complementary driver for
exactly those scenarios: :func:`observe_oscillation` starts the network,
runs to a fixed simulation-time horizon *without* demanding quiescence,
and then classifies what it saw:

* ``converged`` — the scheduler went quiet before the horizon; every loop
  observed was transient (the paper's regime).
* ``persistent-oscillation`` — still scheduling substantive work at the
  horizon *and* update messages landed inside the trailing observation
  window: the protocol is live and churning, the stability literature's
  divergence regime.
* ``indeterminate`` — not quiescent but the tail window was silent
  (an MRAI round longer than the window, or a horizon too short to
  judge); re-run with a wider window before concluding anything.

The report carries the static analyzer's verdict for the same
``(scenario, policies)`` pair, so each dynamic measurement is
cross-checked against the dispute-wheel certificate in both directions:
a certified-SAFE scenario must classify ``converged``; a measured
``persistent-oscillation`` must come with a wheel (no wheel ⇒ safe ⇒
convergent).  The converse is deliberately *not* asserted — DISAGREE
carries a wheel yet converges under MRAI-staggered timing (it oscillates
only when lockstep timing keeps its two nodes phase-locked).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.stability import StabilityReport, certify_scenario
from ..bgp import Announcement, BgpConfig, Withdrawal
from ..core import LoopInterval, loop_timeline
from ..dataplane import FibChangeLog
from ..engine import RandomStreams, Scheduler
from ..errors import SchedulingError
from .runner import build_network
from .unsafe import PolicyScenario

#: Default knobs sized for the 3-4 node gadgets.  MRAI is *disabled* by
#: default: with rate limiting on, BAD-GADGET's oscillation phase-locks
#: after the initial transient into a control-plane-only orbit (best
#: routes keep flipping but the forwarding graph never closes a cycle),
#: whereas with updates propagating freely the forwarding loop on the rim
#: re-forms continuously — the persistent *data-plane* loop this runner
#: exists to measure.  120 s of horizon is hundreds of oscillation
#: rounds, far beyond any transient.
DEFAULT_HORIZON = 120.0
DEFAULT_EVENT_BUDGET = 2_000_000


@dataclass
class OscillationReport:
    """What one fixed-horizon observation of a policy scenario saw."""

    name: str
    seed: int
    horizon: float
    window: float
    quiescent: bool
    last_activity: float
    updates_in_window: int
    total_messages: int
    classification: str
    loop_intervals: List[LoopInterval] = field(default_factory=list)
    persistent_loops: int = 0
    """Distinct loop lifetimes still open in the trailing window — loops
    that outlived the whole remaining observation, not transients."""
    budget_exhausted: bool = False
    stability: Optional[StabilityReport] = None
    """The static analyzer's verdict for the same scenario + policies."""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "horizon": self.horizon,
            "window": self.window,
            "classification": self.classification,
            "quiescent": self.quiescent,
            "updates_in_window": self.updates_in_window,
            "total_messages": self.total_messages,
            "loop_intervals": len(self.loop_intervals),
            "persistent_loops": self.persistent_loops,
            "budget_exhausted": self.budget_exhausted,
        }

    def render(self) -> str:
        lines = [
            f"{self.name} (seed {self.seed}): {self.classification} — "
            f"{self.total_messages} messages in {self.horizon:g}s, "
            f"{self.updates_in_window} updates in the final {self.window:g}s, "
            f"{len(self.loop_intervals)} loop interval(s), "
            f"{self.persistent_loops} persistent"
        ]
        if self.stability is not None:
            lines.append(
                f"  static verdict: {self.stability.verdict.value.upper()} "
                f"[{self.stability.method}]"
            )
        return "\n".join(lines)


def observe_oscillation(
    policy_scenario: PolicyScenario,
    config: Optional[BgpConfig] = None,
    horizon: float = DEFAULT_HORIZON,
    window: Optional[float] = None,
    seed: int = 0,
    event_budget: int = DEFAULT_EVENT_BUDGET,
    certify: bool = True,
) -> OscillationReport:
    """Run ``policy_scenario`` from cold start to ``horizon`` and classify.

    Unlike the experiment runner there is no warm-up/event split: the
    origin announces at t=0 and the simulation simply runs.  Divergence —
    when present — begins with the very first announcement wave, so the
    scenario's schedule is not injected (the gadgets' is empty).

    ``window`` is the trailing observation window for the liveness test;
    it defaults to three MRAI rounds (at least 5 s) so one quiet MRAI gap
    is never mistaken for convergence.
    """
    active = config or BgpConfig(mrai=0.0, processing_delay=(0.01, 0.05))
    if window is None:
        window = max(5.0, 3.0 * active.mrai)
    scenario = policy_scenario.scenario
    streams = RandomStreams(seed)
    scheduler = Scheduler()
    fib_log = FibChangeLog()
    network = build_network(
        scenario,
        active,
        streams,
        scheduler,
        fib_log,
        policy_factory=policy_scenario.policy_factory,
    )
    network.start()
    budget_exhausted = False
    try:
        scheduler.run(until=horizon, max_events=event_budget)
    except SchedulingError:
        budget_exhausted = True

    quiescent = not budget_exhausted and scheduler.next_substantive_time() is None
    last_activity = scheduler.last_substantive_event_time or 0.0
    window_start = horizon - window
    updates_in_window = network.trace.count(
        lambda r: r.time >= window_start
        and isinstance(r.message, (Announcement, Withdrawal))
    )
    intervals = loop_timeline(fib_log, scenario.prefix, 0.0, scheduler.now)
    persistent = sum(1 for iv in intervals if iv.end >= window_start)

    if quiescent:
        classification = "converged"
    elif updates_in_window > 0:
        classification = "persistent-oscillation"
    else:
        classification = "indeterminate"

    stability = None
    if certify:
        stability = certify_scenario(
            scenario, policy_factory=policy_scenario.policy_factory
        )

    return OscillationReport(
        name=scenario.name,
        seed=seed,
        horizon=horizon,
        window=window,
        quiescent=quiescent,
        last_activity=last_activity,
        updates_in_window=updates_in_window,
        total_messages=len(network.trace),
        classification=classification,
        loop_intervals=intervals,
        persistent_loops=persistent,
        budget_exhausted=budget_exhausted,
        stability=stability,
    )
