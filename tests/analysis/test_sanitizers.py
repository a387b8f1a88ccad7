"""Tests for the runtime sanitizers, observers on the one observation seam."""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import (
    CausalitySanitizer,
    FifoSanitizer,
    RibCoherenceSanitizer,
    build_suite,
)
from repro.bgp import BgpConfig, BgpSpeaker, DampingConfig, combine, variant
from repro.engine import RandomStreams, Scheduler
from repro.errors import BudgetExceededError, SanitizerError
from repro.experiments import RunSettings, run_experiment, tdown_clique
from repro.net import Network
from repro.net.channel import Channel
from repro.topology import chain


class TestBuildSuite:
    def test_default_suite_has_all_sanitizers(self):
        kinds = [type(s) for s in build_suite()]
        assert kinds == [CausalitySanitizer, FifoSanitizer, RibCoherenceSanitizer]

    def test_describe_aggregates_all_members(self):
        scheduler = Scheduler()
        scheduler.observe(*build_suite())
        lines = scheduler.observer.describe()
        text = "\n".join(lines)
        assert "causality" in text
        assert "fifo" in text
        assert "rib" in text


class TestCausalitySanitizer:
    def test_scheduling_into_the_past_trips(self):
        scheduler = Scheduler()
        scheduler.observe(CausalitySanitizer())
        scheduler.call_at(5.0, lambda: None)
        scheduler.run()
        assert scheduler.now == 5.0
        with pytest.raises(SanitizerError, match="causality"):
            scheduler.call_at(1.0, lambda: None, name="stale-timer")

    def test_event_scheduled_in_past_from_handler_trips(self):
        scheduler = Scheduler()
        scheduler.observe(CausalitySanitizer())

        def misbehave():
            scheduler.call_at(scheduler.now - 0.5, lambda: None)

        scheduler.call_at(2.0, misbehave)
        with pytest.raises(SanitizerError, match="causality"):
            scheduler.run()

    def test_non_monotone_firing_trips(self):
        sanitizer = CausalitySanitizer()
        sanitizer.on_event_fired(0.0, 5.0, "a", 0)
        with pytest.raises(SanitizerError, match="fired at"):
            sanitizer.on_event_fired(5.0, 3.0, "b", 0)

    def test_clean_run_counts_checks(self):
        scheduler = Scheduler()
        sanitizer = CausalitySanitizer()
        scheduler.observe(sanitizer)
        for delay in (1.0, 2.0, 3.0):
            scheduler.call_after(delay, lambda: None)
        scheduler.run()
        assert sanitizer.schedules_checked == 3
        assert sanitizer.events_checked == 3


class TestFifoSanitizer:
    def test_sequence_gap_trips(self):
        sanitizer = FifoSanitizer()
        sanitizer.on_channel_deliver(0, 1, None, 0, 1, 0.1)
        with pytest.raises(SanitizerError, match="fifo"):
            sanitizer.on_channel_deliver(0, 1, None, 0, 3, 0.2)

    def test_reordered_arrival_time_trips(self):
        sanitizer = FifoSanitizer()
        sanitizer.on_channel_deliver(0, 1, None, 0, 1, 1.0)
        with pytest.raises(SanitizerError, match="precedes"):
            sanitizer.on_channel_deliver(0, 1, None, 0, 2, 0.5)

    def test_delivery_from_flushed_generation_trips(self):
        sanitizer = FifoSanitizer()
        sanitizer.on_channel_deliver(0, 1, None, 0, 1, 0.1)
        sanitizer.on_channel_flush(0, 1, 0, 1)
        with pytest.raises(SanitizerError, match="dead generation"):
            sanitizer.on_channel_deliver(0, 1, None, 0, 2, 0.2)

    def test_new_generation_restarts_sequence(self):
        sanitizer = FifoSanitizer()
        sanitizer.on_channel_deliver(0, 1, None, 0, 1, 0.1)
        sanitizer.on_channel_flush(0, 1, 0, 1)
        sanitizer.on_channel_deliver(0, 1, None, 1, 1, 0.3)
        assert sanitizer.deliveries_checked == 2

    def test_channel_integration_clean(self):
        scheduler = Scheduler()
        sanitizer = FifoSanitizer()
        scheduler.observe(sanitizer)
        received = []
        channel = Channel(
            scheduler, 0, 1, 0.002, lambda src, msg: received.append(msg)
        )
        for index in range(5):
            channel.send(index)
        scheduler.run()
        assert received == [0, 1, 2, 3, 4]
        assert sanitizer.deliveries_checked == 5

    def test_channel_integration_across_reset(self):
        scheduler = Scheduler()
        sanitizer = FifoSanitizer()
        scheduler.observe(sanitizer)
        received = []
        channel = Channel(
            scheduler, 0, 1, 0.002, lambda src, msg: received.append(msg)
        )
        channel.send("a")
        channel.send("b")
        scheduler.run()
        channel.send("lost")  # destroyed in flight by the reset below
        channel.drop_in_flight()
        channel.send("c")
        scheduler.run()
        assert received == ["a", "b", "c"]
        assert sanitizer.deliveries_checked == 3


class TestRibCoherenceSanitizer:
    @pytest.fixture
    def converged_network(self, bgp_network_factory):
        from repro.topology import clique

        network, _fib_log = bgp_network_factory(clique(4))
        speaker = network.node(0)
        speaker.originate("d0/8")
        network.scheduler.run()
        return network

    def test_clean_converged_state_passes(self, converged_network):
        sanitizer = RibCoherenceSanitizer()
        for node_id in sorted(converged_network.nodes):
            sanitizer.on_decision(converged_network.node(node_id), "d0/8")
        assert sanitizer.decisions_checked == 4

    def test_corrupted_loc_rib_trips(self, converged_network):
        speaker = converged_network.node(1)
        speaker.loc_rib.remove("d0/8")
        with pytest.raises(SanitizerError, match="decision process selects"):
            RibCoherenceSanitizer().on_decision(speaker, "d0/8")

    def test_corrupted_fib_trips(self, converged_network):
        speaker = converged_network.node(1)
        speaker.fib["d0/8"] = 3  # best route points elsewhere
        best = speaker.best_route("d0/8")
        assert best is not None and best.next_hop != 3
        with pytest.raises(SanitizerError, match="FIB hop"):
            RibCoherenceSanitizer().on_decision(speaker, "d0/8")

    def test_announcement_during_mrai_hold_trips(self, converged_network):
        speaker = converged_network.node(1)
        path = speaker.full_path("d0/8")
        speaker.mrai.mark_sent(2, "d0/8")
        assert not speaker.mrai.can_send_now(2, "d0/8")
        with pytest.raises(SanitizerError, match="MRAI"):
            RibCoherenceSanitizer().on_announcement(speaker, 2, "d0/8", path)

    def test_foreign_path_head_trips(self, converged_network):
        speaker = converged_network.node(1)
        foreign = speaker.full_path("d0/8").prepend(9)
        with pytest.raises(SanitizerError, match="headed by"):
            RibCoherenceSanitizer().on_announcement(speaker, 2, "d0/8", foreign)


ENHANCEMENTS = ("ssld", "wrate", "assertion", "ghost-flushing")
#: Every combination of two or more enhancements (11 of them).
COMBINATIONS = [
    combo
    for size in range(2, len(ENHANCEMENTS) + 1)
    for combo in itertools.combinations(ENHANCEMENTS, size)
]


class TestWrateWithdrawals:
    """Under WRATE a withdrawal waits for MRAI, except Ghost Flushing's:
    it withdraws a route the speaker would export, longer than the one
    the peer holds, at once by design."""

    @pytest.mark.parametrize("names", COMBINATIONS, ids="+".join)
    def test_every_combination_runs_sanitized(self, names):
        for seed in range(8):
            run = run_experiment(
                tdown_clique(4),
                combine(names, mrai=1.0),
                settings=RunSettings(sanitize=True),
                seed=seed,
            )
            assert run.converged

    @pytest.fixture
    def held_peer(self, bgp_network_factory):
        """Node 1 of a converged 4-clique under WRATE and Ghost Flushing,
        its MRAI timer toward node 2 running."""
        from repro.topology import clique

        network, _fib_log = bgp_network_factory(
            clique(4), config=combine(["wrate", "ghost-flushing"], mrai=1.0)
        )
        network.node(0).originate("d0/8")
        network.scheduler.run()
        speaker = network.node(1)
        speaker.mrai.mark_sent(2, "d0/8")
        assert not speaker.mrai.can_send_now(2, "d0/8")
        return speaker

    def test_flush_of_a_ghost_passes(self, held_peer):
        # Node 2 was told a path shorter than the one node 1 now exports.
        held_peer.adj_rib_out.record(2, "d0/8", held_peer.full_path("d0/8")[1:])
        RibCoherenceSanitizer().on_withdrawal(held_peer, 2, "d0/8")

    def test_withdrawal_of_a_route_no_longer_than_the_peers_trips(self, held_peer):
        with pytest.raises(SanitizerError, match="WRATE-limited"):
            RibCoherenceSanitizer().on_withdrawal(held_peer, 2, "d0/8")

    def test_withdrawal_with_no_route_trips(self, held_peer):
        held_peer.loc_rib.remove("d0/8")
        with pytest.raises(SanitizerError, match="WRATE-limited"):
            RibCoherenceSanitizer().on_withdrawal(held_peer, 2, "d0/8")

    @pytest.mark.parametrize(
        "names", [("wrate",), ("wrate", "ghost-flushing")], ids="+".join
    )
    def test_withdrawals_sent_through_a_closed_gate_trip(self, monkeypatch, names):
        """Mutation: ``_sync`` sends every withdrawal at once, WRATE or not."""
        plan = BgpSpeaker._plan
        monkeypatch.setattr(
            BgpSpeaker,
            "_plan",
            lambda self, peers, best: [
                (peer, sent, desired, limited and desired is not None, extra)
                for peer, sent, desired, limited, extra in plan(self, peers, best)
            ],
        )
        with pytest.raises(SanitizerError, match="WRATE-limited"):
            for seed in range(8):
                run_experiment(
                    tdown_clique(4),
                    combine(names, mrai=1.0),
                    settings=RunSettings(sanitize=True),
                    seed=seed,
                )


class TestGroupDecisionMutation:
    """The speaker decides once per decision key; a key that forgets the
    damping-suppressed candidates shares one prefix's winner with another
    whose winner is suppressed, and the sanitizer catches it."""

    DAMPING = DampingConfig(
        withdrawal_penalty=1000.0,
        attribute_change_penalty=500.0,
        suppress_threshold=2000.0,
        reuse_threshold=750.0,
        half_life=10.0,
        max_suppress_time=60.0,
    )

    def decide_with_one_prefix_suppressed(self):
        """Two prefixes sharing one state group at node 2 of a chain, one of
        them suppressed toward its only candidate: decide both at once."""
        config = BgpConfig(mrai=1.0, damping=self.DAMPING)
        scheduler = Scheduler()
        streams = RandomStreams(4)
        network = Network(
            chain(3),
            scheduler,
            lambda node, sched: BgpSpeaker(node, sched, config=config, streams=streams),
        )
        for prefix in ("a", "b"):
            network.node(0).originate(prefix)
        network.start()
        scheduler.run(max_events=10_000)
        speaker = network.node(2)
        group_a, group_b = speaker.adj_rib_in.groups(["a", "b"])
        assert group_a is group_b
        speaker.damper.record_withdrawal(1, "b")
        speaker.damper.record_withdrawal(1, "b")
        scheduler.observe(RibCoherenceSanitizer())
        speaker._run_decisions(["a", "b"])
        return speaker

    def test_suppressed_prefix_decides_apart(self):
        speaker = self.decide_with_one_prefix_suppressed()
        assert speaker.best_route("a") is not None
        assert speaker.best_route("b") is None

    def test_a_key_without_the_suppressed_set_trips(self, monkeypatch):
        """Mutation: the decision key drops the damping-suppressed set."""
        keys = BgpSpeaker._decision_keys
        monkeypatch.setattr(
            BgpSpeaker,
            "_decision_keys",
            lambda self, prefixes: [key[:2] for key in keys(self, prefixes)],
        )
        with pytest.raises(SanitizerError, match="decision process selects"):
            self.decide_with_one_prefix_suppressed()


class TestRunnerIntegration:
    def test_sanitized_run_matches_unsanitized(self):
        scenario = tdown_clique(5)
        config = variant("standard", mrai=2.0)
        plain = run_experiment(scenario, config, seed=3)
        sanitized = run_experiment(
            scenario, config, settings=RunSettings(sanitize=True), seed=3
        )
        assert (
            sanitized.result.summary_row() == plain.result.summary_row()
        ), "sanitizers must observe, never perturb"

    def test_sanitized_session_run_passes(self):
        from repro.experiments import treset_clique

        config = BgpConfig(
            mrai=1.0,
            processing_delay=(0.01, 0.05),
            hold_time=9.0,
            keepalive_interval=3.0,
            connect_retry=0.5,
            connect_retry_cap=4.0,
        )
        run = run_experiment(
            treset_clique(4), config, settings=RunSettings(sanitize=True), seed=1
        )
        assert run.converged

    def test_budget_snapshot_reports_sanitizer_state(self):
        scenario = tdown_clique(5)
        config = variant("standard", mrai=2.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            run_experiment(
                scenario,
                config,
                settings=RunSettings(sanitize=True, event_budget=10),
                seed=0,
            )
        snapshot = excinfo.value.snapshot
        assert snapshot is not None
        state = "\n".join(snapshot.sanitizer_state)
        assert "causality" in state
        assert "fifo" in state
        assert "rib" in state
        assert "sanitizer state:" in snapshot.render()

    def test_unsanitized_snapshot_has_no_sanitizer_state(self):
        scenario = tdown_clique(5)
        config = variant("standard", mrai=2.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            run_experiment(
                scenario, config, settings=RunSettings(event_budget=10), seed=0
            )
        assert excinfo.value.snapshot.sanitizer_state == ()

    def test_sanitize_and_telemetry_share_the_seam(self):
        """Both observers on one run: the plain run's digest, the
        telemetry-only run's snapshot, the sanitize-only run's state."""
        from repro.analysis import fingerprint_run

        scenario = tdown_clique(5)
        config = variant("standard", mrai=2.0)

        def run(**flags):
            return run_experiment(
                scenario,
                config,
                settings=RunSettings(**flags),
                seed=2,
                keep_network=True,
            )

        plain = run()
        telemetry = run(telemetry=True)
        both = run(sanitize=True, telemetry=True)
        assert fingerprint_run(both).digest == fingerprint_run(plain).digest
        assert both.metrics == telemetry.metrics
        assert not both.metrics.empty

        def sanitizer_lines(**flags):
            with pytest.raises(BudgetExceededError) as excinfo:
                run_experiment(
                    scenario,
                    config,
                    settings=RunSettings(event_budget=40, **flags),
                    seed=2,
                )
            return excinfo.value.snapshot.sanitizer_state

        lines = sanitizer_lines(sanitize=True)
        assert len(lines) == 3
        assert sanitizer_lines(sanitize=True, telemetry=True) == lines
