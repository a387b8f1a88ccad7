"""The fast speaker against the reference speaker, over drawn runs.

Each example draws a small connected topology (3-6 ASes), an origination
set (one prefix, or a Tagg prefix population), a schedule of
``OriginWithdrawal`` / ``LinkFailure`` / ``AggregationCycle`` injectors, an
MRAI value and jitter, any subset of the four §5 enhancements, the MRAI
mode, the UPDATE packing and the seed.  The same run is simulated twice on
the same engine and RNG streams — once with :class:`repro.BgpSpeaker` at
every node, once with :class:`reference_speaker.ReferenceSpeaker` — and
compared:

* at quiescence, every node's Loc-RIB and FIB are equal, for every variant
  × MRAI mode × packing (one named exception below);
* every decision of the fast speaker, in every drawn run, equals the
  naive full scan's (the RIB-coherence sanitizer's decision check watches
  the run): a decision shared by a state group holds for each member
  prefix;
* with plain (one-route) UPDATEs the two runs are equal event for event,
  in either MRAI mode and with jitter drawn or pinned to ``(1.0, 1.0)``:
  the same ``FibChangeLog`` (instants, nodes, prefixes, next hops — so
  every loop interval and data-plane report built from it) and the same
  message trace.

**The exception: Assertion with WRATE under batched UPDATEs.**  Assertion
deletes a neighbor's stored route on indirect evidence, while that neighbor
still lists the route as sent.  If the neighbor's own withdrawal of it is
held by WRATE and its route returns before the timer expires, the held
withdrawal collapses into a duplicate of what was "already sent" and the
route is never re-advertised.  Whether that happens depends on message
timing, which packing changes (``test_assertion_and_wrate_fixed_point_
depends_on_packing`` pins one such run), so those runs are not compared at
quiescence.

The tests at the bottom monkeypatch one mutation each into the fast speaker
and assert that a property then fails, so neither can pass vacuously.  The
reference imports only the wire types from ``repro.bgp``; this module
reaches the fast speaker through the top-level ``repro`` package.

The properties run 100 examples each in tier-1 (≈5 s together);
``--hypothesis-profile=deep`` (``tests/conftest.py``) runs 2 000 nightly.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

from hypothesis import Phase, given, settings, strategies as st

from reference_speaker import ReferenceSpeaker
from repro import BgpConfig, BgpSpeaker
from repro.analysis import RibCoherenceSanitizer
from repro.dataplane import FibChangeLog
from repro.engine import Observer, RandomStreams, Scheduler
from repro.errors import SanitizerError
from repro.experiments import Scenario
from repro.experiments.scenarios import tagg_clique
from repro.net import LinkFailure, Network, OriginWithdrawal
from repro.topology import Topology

EVENT_BUDGET = 200_000
PER_PREFIX, PER_PEER = "per-prefix", "per-peer"
PINNED = (1.0, 1.0)


# ----------------------------------------------------------------------
# Drawn runs
# ----------------------------------------------------------------------


@st.composite
def topologies(draw):
    """A connected graph: a random spanning tree plus up to 2n chords."""
    n = draw(st.integers(min_value=3, max_value=6))
    edges = {(draw(st.integers(0, child - 1)), child) for child in range(1, n)}
    node = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v}
    return Topology.from_edges(sorted(edges), name=f"drawn-{n}")


@st.composite
def scenarios(draw):
    topology = draw(topologies())
    at = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
    if draw(st.booleans()):
        # A Tagg population (its aggregation cycle at 0).
        base = tagg_clique(
            topology.num_nodes,
            prefixes=draw(st.integers(min_value=2, max_value=8)),
            seed=draw(st.integers(0, 3)),
            origins=draw(st.integers(min_value=1, max_value=2)),
            hold=draw(st.floats(min_value=0.5, max_value=12.0)),
        )
        scenario = replace(base, topology=topology, name="drawn-tagg")
        optional = []
    else:
        destination = draw(st.sampled_from(topology.nodes))
        scenario = Scenario("drawn", topology, destination)
        optional = [OriginWithdrawal(destination, scenario.prefix, at=draw(at))]
    spares = [(u, v) for u, v, _ in topology.edges() if not topology.is_cut_edge(u, v)]
    if spares:
        optional.append(LinkFailure(*draw(st.sampled_from(spares)), at=draw(at)))
    events = list(scenario.events)
    if optional:
        events += draw(st.lists(st.sampled_from(optional), unique=True, max_size=2))
    return replace(scenario, events=tuple(events or optional[:1]))


@st.composite
def configs(draw, **fixed):
    """Any MRAI value, jitter, mode, packing and enhancement subset;
    ``fixed`` pins fields."""
    flag = st.booleans()
    drawn = dict(
        mrai=draw(st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        mrai_jitter=draw(st.sampled_from([PINNED, (0.75, 1.0)])),
        mrai_mode=draw(st.sampled_from([PER_PREFIX, PER_PEER])),
        batch_updates=draw(flag),
        ssld=draw(flag),
        wrate=draw(flag),
        assertion=draw(flag),
        ghost_flushing=draw(flag),
    )
    return BgpConfig(**{**drawn, **fixed})


def runs(**fixed):
    """``(scenario, config, seed)``."""
    return st.tuples(scenarios(), configs(**fixed), st.integers(0, 2**16))


def timing_independent(run) -> bool:
    """False for the one combination whose quiescent state depends on
    message timing (see the module docstring)."""
    config = run[1]
    return not (config.assertion and config.wrate and config.batch_updates)


def simulate(make_node, scenario, config, seed, *observers):
    """Warm up, inject the schedule one second after quiescence, run out.

    ``make_node(node_id, scheduler, config, streams, fib_listener)``;
    ``observers`` watch the run.
    """
    scheduler = Scheduler()
    scheduler.observe(*observers)
    streams = RandomStreams(seed)
    fib_log = FibChangeLog()
    network = Network(
        scenario.topology,
        scheduler,
        lambda node, sched: make_node(node, sched, config, streams, fib_log.record),
    )
    for node, prefix in scenario.originations:
        network.node(node).originate(prefix)
    network.start()
    scheduler.run(max_events=EVENT_BUDGET)
    failure = scheduler.now + 1.0
    for entry in scenario.events:
        replace(entry, at=entry.at + failure).inject(network)
    scheduler.run(max_events=EVENT_BUDGET)
    return network, fib_log


def fast_speaker(node, scheduler, config, streams, fib_listener):
    return BgpSpeaker(
        node, scheduler, config=config, streams=streams, fib_listener=fib_listener
    )


def both(scenario, config, seed):
    return (
        simulate(fast_speaker, scenario, config, seed),
        simulate(ReferenceSpeaker, scenario, config, seed),
    )


def fast_loc_rib(speaker):
    return {
        prefix: (tuple(route.path), route.next_hop)
        for prefix in speaker.loc_rib.prefixes()
        for route in [speaker.best_route(prefix)]
    }


def routed(fib):
    """The forwarding state.  A ``None`` entry only records that the prefix
    was routed once, and batching may collapse an announce-then-withdraw
    so that a peer never installs it."""
    return {prefix: hop for prefix, hop in fib.items() if hop is not None}


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------


def check_quiescent_state(run):
    (fast, _), (reference, _) = both(*run)
    for node in run[0].topology.nodes:
        mine, theirs = fast.node(node), reference.node(node)
        assert fast_loc_rib(mine) == theirs.loc_rib, f"Loc-RIB of {node}"
        assert routed(mine.fib) == routed(theirs.fib), f"FIB of {node}"


class DecisionCoherence(Observer):
    """The RIB-coherence sanitizer's decision check alone: after every
    decision, the Loc-RIB and FIB equal the naive scan's choice."""

    def __init__(self) -> None:
        self._sanitizer = RibCoherenceSanitizer()

    def on_decision(self, speaker, prefix):
        self._sanitizer.on_decision(speaker, prefix)


def check_decision_coherence(run):
    """The fast speaker alone, every decision checked as it is made."""
    try:
        simulate(fast_speaker, *run, DecisionCoherence())
    except SanitizerError as error:
        raise AssertionError(str(error)) from error


def trace(network):
    return [(r.time, r.src, r.dst, repr(r.message)) for r in network.trace]


def check_event_for_event(run):
    (fast, fast_log), (reference, reference_log) = both(*run)
    assert list(fast_log) == list(reference_log)
    assert trace(fast) == trace(reference)


@settings(deadline=None)
@given(runs().filter(timing_independent))
def test_quiescent_loc_rib_and_fib_match_the_reference(run):
    check_quiescent_state(run)


@settings(deadline=None)
@given(runs(batch_updates=False))
def test_plain_runs_match_the_reference_event_for_event(run):
    check_event_for_event(run)


@settings(deadline=None)
@given(runs())
def test_every_decision_matches_the_naive_scan(run):
    check_decision_coherence(run)


def test_assertion_and_wrate_fixed_point_depends_on_packing():
    """The run behind the quiescence property's one exception: AS 2 learns
    ``00000100/24`` via AS 1, Assertion deletes that route when AS 0
    withdraws the prefix, and AS 1's WRATE-held withdrawal turns into a
    duplicate once AS 0 re-originates.  Plain UPDATEs time AS 1's
    withdrawal ahead of the return; one batched UPDATE does not."""
    base = tagg_clique(4, prefixes=2, seed=0, hold=1.7)
    scenario = replace(
        base,
        topology=Topology.from_edges([(0, 1), (0, 2), (1, 2), (1, 3)]),
        events=base.events + (LinkFailure(0, 2, at=1.7),),
    )
    config = BgpConfig(
        mrai=1.0, mrai_jitter=PINNED, mrai_mode=PER_PEER, wrate=True, assertion=True
    )
    plain, batched = (
        simulate(fast_speaker, scenario, replace(config, batch_updates=b), 1111)[0]
        for b in (False, True)
    )
    reference = simulate(ReferenceSpeaker, scenario, config, 1111)[0]
    specific = "00000100/24"
    assert fast_loc_rib(plain.node(2)) == reference.node(2).loc_rib
    assert specific in reference.node(2).loc_rib
    assert specific not in fast_loc_rib(batched.node(2))


def test_reference_imports_only_wire_types_from_the_fast_package():
    for name in ("reference_speaker.py", Path(__file__).name):
        tree = ast.parse(Path(__file__).with_name(name).read_text())
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        fast = {module for module in imported if module.startswith("repro.bgp")}
        assert fast <= {"repro.bgp.messages", "repro.bgp.path"}, (name, fast)


# ----------------------------------------------------------------------
# Each property can fail
# ----------------------------------------------------------------------


def falsified(check, strategy, examples=150):
    """True when some drawn run makes ``check`` fail (no shrinking)."""

    @settings(
        max_examples=examples,
        phases=[Phase.generate],
        derandomize=True,
        deadline=None,
        database=None,
        report_multiple_bugs=False,
    )
    @given(strategy)
    def search(run):
        check(run)

    try:
        search()
    except AssertionError:
        return True
    return False


def test_event_property_catches_ssld_withdrawals_held_by_mrai(monkeypatch):
    """Mutation: SSLD's withdrawals lose their MRAI exemption — a converted
    announcement waits for the timer like the announcement it replaces."""
    plan = BgpSpeaker._plan

    def rate_limited_ssld(self, peers, best):
        return [
            (peer, sent, desired, limited or extra == "ssld_conversion", extra)
            for peer, sent, desired, limited, extra in plan(self, peers, best)
        ]

    monkeypatch.setattr(BgpSpeaker, "_plan", rate_limited_ssld)
    assert falsified(check_event_for_event, runs(batch_updates=False, ssld=True))


def test_quiescence_property_catches_a_skipped_adj_rib_out_record(monkeypatch):
    """Mutation: each speaker forgets the first route it records as sent,
    so it later suppresses that route's withdrawal as a duplicate."""
    init = BgpSpeaker.__init__

    def forgetful(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record = self.adj_rib_out.record
        skipped = []

        def skip_first(peer, prefix, path):
            if skipped:
                record(peer, prefix, path)
            skipped.append(prefix)

        self.adj_rib_out.record = skip_first

    monkeypatch.setattr(BgpSpeaker, "__init__", forgetful)
    assert falsified(check_quiescent_state, runs().filter(timing_independent))


def test_quiescence_property_catches_a_prefix_dropped_from_a_held_set(monkeypatch):
    """Mutation: a per-peer MRAI expiry forgets one prefix its timer held,
    so that prefix's suppressed update never goes out."""
    release = BgpSpeaker._on_mrai_expiry
    monkeypatch.setattr(
        BgpSpeaker,
        "_on_mrai_expiry",
        lambda self, peer, held: release(self, peer, held[1:]),
    )
    assert falsified(
        check_quiescent_state, runs(mrai_mode=PER_PEER).filter(timing_independent)
    )


def test_rib_sanitizer_catches_a_decision_shared_across_origination(monkeypatch):
    """Mutation: the decision key drops the origination flag, so when one
    UPDATE names a prefix we originate and one we do not, and neither has a
    usable stored route, the first one's winner becomes the other's."""
    keys = BgpSpeaker._decision_keys
    monkeypatch.setattr(
        BgpSpeaker,
        "_decision_keys",
        lambda self, prefixes: [key[:1] for key in keys(self, prefixes)],
    )
    assert falsified(check_decision_coherence, runs(batch_updates=True))
