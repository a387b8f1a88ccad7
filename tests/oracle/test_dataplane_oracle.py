"""The data-plane evaluator against per-packet forwarding, over drawn runs.

Each example draws a run from ``test_speaker_oracle``'s strategies (topology,
origination set, fault schedule, MRAI, enhancements, packing, seed) and
measures one window after the failure twice:

* :class:`repro.dataplane.PacketForwarder` simulates every packet hop by hop
  inside the run, reading each node's live FIB as the packet arrives;
* :class:`repro.dataplane.EpochEvaluator` evaluates the run's
  ``FibChangeLog`` afterwards, one packet fate per constant-fate segment.

Both must count the same packets.  A packet whose flight straddles a FIB
change of the prefix meets the new state in the forwarder and the old one in
the evaluator, so each fate count may differ by at most the packets that
depart at or within ``ttl × max link delay`` before such an instant — a
bound the run itself supplies, zero when no change falls in reach of the
window's packets.  On opaque-prefix runs the traffic-matrix evaluator, given
the same sources as a one-destination matrix, must report the evaluator's
totals exactly.

The property runs 100 examples in tier-1; ``--hypothesis-profile=deep``
(``tests/conftest.py``) runs 2 000.  The test at the bottom applies every
change one instant late and asserts that the property then fails.
"""

from __future__ import annotations

from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    EpochEvaluator,
    FibChangeLog,
    Flow,
    PacketForwarder,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    sources_for,
)
from repro.experiments import RunSettings, run_experiment
from repro.prefixes import parse_prefix
from test_speaker_oracle import configs, falsified, scenarios

TTL = 16
RATE = 10.0
WINDOW = 20.0  # seconds after the failure; drawn events land within 8 s


def runs():
    """``(scenario, config, seed)``."""
    return st.tuples(scenarios(), configs(), st.integers(0, 2**16))


def measure(scenario, config, seed):
    """Run once with a forwarder attached at the failure instant; return
    ``(fib_log, sources, start, forwarder report)``."""
    sources = sources_for(scenario.topology.nodes, scenario.destination, rate=RATE)
    attached = {}

    def attach(network, failure_time):
        forwarder = PacketForwarder(
            network.scheduler,
            scenario.topology,
            lambda node: network.nodes[node].fib.get(scenario.prefix),
            ttl=TTL,
        )
        forwarder.launch(sources, failure_time, failure_time + WINDOW)
        attached.update(forwarder=forwarder, start=failure_time)

    run = run_experiment(
        scenario,
        config,
        RunSettings(packet_rate=RATE, ttl=TTL),
        seed=seed,
        on_network_ready=attach,
    )
    return run.fib_log, sources, attached["start"], attached["forwarder"].report


def in_flight(log, prefix, sources, start, end, reach):
    """Packets of ``[start, end)`` that depart at or within ``reach`` before
    a change instant of ``prefix`` — the only ones whose flight can see the
    forwarding state move under them."""
    instants = [t for t in log.change_times(prefix) if start <= t <= end + reach]
    count = 0
    for source in sources:
        for departure in source.times_in(start, end):
            index = bisect_left(instants, departure)
            if index < len(instants) and instants[index] <= departure + reach:
                count += 1
    return count


def check_against_forwarder(run):
    scenario, config, seed = run
    log, sources, start, exact = measure(scenario, config, seed)
    end = start + WINDOW
    epoch = EpochEvaluator(log, scenario.prefix, sources, ttl=TTL).evaluate(start, end)
    assert epoch.packets_sent == exact.packets_sent

    reach = TTL * max(delay for _u, _v, delay in scenario.topology.edges())
    bound = in_flight(log, scenario.prefix, sources, start, end, reach)
    for fate in ("delivered", "dropped_no_route", "ttl_exhaustions"):
        drift = abs(getattr(epoch, fate) - getattr(exact, fate))
        assert drift <= bound, f"{fate}: off by {drift}, {bound} in flight"

    if parse_prefix(scenario.prefix) is None:
        matrix = TrafficMatrix(
            tuple(
                Flow(
                    source=source.node,
                    prefix=scenario.prefix,
                    destination=scenario.prefix,
                    rate=source.rate,
                    start=source.start,
                )
                for source in sources
            )
        )
        traffic = TrafficMatrixEvaluator(log, matrix, ttl=TTL).evaluate(start, end)
        assert (
            traffic.offered,
            traffic.delivered,
            traffic.blackholed,
            traffic.looped,
        ) == (
            epoch.packets_sent,
            epoch.delivered,
            epoch.dropped_no_route,
            epoch.ttl_exhaustions,
        )


@settings(deadline=None)
@given(runs())
def test_evaluator_agrees_with_per_packet_forwarding(run):
    check_against_forwarder(run)


def test_forwarding_property_catches_changes_applied_one_instant_late(monkeypatch):
    """Mutation: the window's opening state is applied on time, but every
    later batch of FIB changes only at the next change instant."""
    instants = FibChangeLog.instants

    def one_instant_late(self, start, end, prefix=None):
        replay = instants(self, start, end, prefix)
        for t0, t1, batch in replay:
            yield t0, t1, batch
            break
        held = []
        for t0, t1, batch in replay:
            yield t0, t1, held
            held = batch

    monkeypatch.setattr(FibChangeLog, "instants", one_instant_late)
    assert falsified(check_against_forwarder, runs())
