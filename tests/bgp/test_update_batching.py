"""Batched UPDATEs and the per-peer MRAI mode.

Two multi-prefix mechanisms ride together: ``BgpConfig.batch_updates``
packs every same-instant route change toward a peer into one
:class:`~repro.bgp.messages.UpdateBatch` (canonical wire form — sorted,
duplicate-free NLRI + withdrawn lists), and ``mrai_mode="per-peer"``
shares one MRAI timer across the whole table toward each neighbor.
Both must leave protocol outcomes intact: batching changes packing,
never timing, and a full Tdown run converges to the same FIB state with
either knob flipped.
"""

import pickle
import random

import pytest

from repro.bgp import AsPath, BgpConfig, MraiManager, UpdateBatch
from repro.bgp.mrai import MRAI_PER_PEER, MRAI_PER_PREFIX
from repro.errors import ConfigError
from repro.experiments import RunSettings
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import tagg_clique, tdown_clique


def batch(**kwargs):
    return UpdateBatch(**kwargs)


class TestUpdateBatchValidation:
    def test_round_trip_fields(self):
        b = batch(
            withdrawn=("a", "b"),
            nlri=(("c", AsPath.of((3, 1))), ("d", AsPath.of((3, 2)))),
        )
        assert b.withdrawn == ("a", "b")
        assert b.size == 4
        assert "Batch[" in repr(b)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch()

    def test_unsorted_withdrawn_rejected(self):
        with pytest.raises(ValueError):
            batch(withdrawn=("b", "a"))

    def test_duplicate_nlri_rejected(self):
        path = AsPath.of((1,))
        with pytest.raises(ValueError):
            batch(nlri=(("a", path), ("a", path)))

    def test_prefix_in_both_lists_rejected(self):
        with pytest.raises(ValueError):
            batch(withdrawn=("a",), nlri=(("a", AsPath.of((1,))),))

    def test_mixed_path_heads_rejected(self):
        with pytest.raises(ValueError):
            batch(nlri=(("a", AsPath.of((1,))), ("b", AsPath.of((2,)))))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            batch(nlri=(("a", AsPath.of(())),))

    def test_pickle_round_trip_preserves_values(self):
        b = batch(
            withdrawn=("w",),
            nlri=(("a", AsPath.of((5, 2, 1))), ("b", AsPath.of((5, 9)))),
        )
        clone = pickle.loads(pickle.dumps(b))
        assert clone == b
        for (_prefix, path), (_cp, cpath) in zip(b.nlri, clone.nlri):
            assert cpath == path
            assert hash(cpath) == hash(path)


class TestBgpConfigKnobs:
    def test_defaults_are_legacy(self):
        config = BgpConfig()
        assert config.mrai_mode == MRAI_PER_PREFIX
        assert config.batch_updates is False

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            BgpConfig(mrai_mode="per-table")


def make_per_peer(scheduler, expiries, interval=10.0):
    return MraiManager(
        scheduler,
        interval=interval,
        jitter=(1.0, 1.0),
        rng=random.Random(0),
        on_expiry=lambda peer, held: expiries.append((scheduler.now, peer, held)),
        mode=MRAI_PER_PEER,
    )


class TestPerPeerMrai:
    def test_timer_shared_across_prefixes(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        mrai.mark_sent(1, "d")
        assert not mrai.can_send_now(1, "e")  # other prefix, same timer
        assert mrai.can_send_now(2, "d")      # other peer unaffected
        mrai.hold([(1, "e")])
        mrai.hold([(1, "b")])
        scheduler.run()
        assert expiries == [(10.0, 1, ["b", "e"])]  # one expiry, its held set

    def test_flush_window_sends_freely_rearms_once(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            assert mrai.can_send_now(1, "a")
            mrai.mark_sent(1, "a")
            assert mrai.can_send_now(1, "b")  # still open inside window
            mrai.mark_sent(1, "b")
        assert not mrai.can_send_now(1, "a")  # armed once at exit
        assert mrai.active_timers() == 1
        scheduler.run()
        assert expiries == [(10.0, 1, [])]

    def test_empty_flush_window_leaves_peer_unthrottled(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            pass
        assert mrai.can_send_now(1, "a")
        assert mrai.active_timers() == 0

    def test_flush_window_noop_in_per_prefix_mode(self, scheduler):
        expiries = []
        mrai = MraiManager(
            scheduler,
            interval=10.0,
            jitter=(1.0, 1.0),
            rng=random.Random(0),
            on_expiry=lambda peer, held: expiries.append((peer, held)),
        )
        with mrai.flush_window(1):
            mrai.mark_sent(1, "a")
            # Per-prefix mode: the send arms its own pair timer immediately.
            assert not mrai.can_send_now(1, "a")
            assert mrai.can_send_now(1, "b")

    def test_cancel_peer_clears_flush_state(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            mrai.mark_sent(1, "a")
            mrai.cancel_peer(1)
        # The cancelled peer must not have been re-armed at window exit.
        assert mrai.can_send_now(1, "a")
        scheduler.run()
        assert expiries == []


FAST = dict(mrai=2.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
TELEMETRY = RunSettings(failure_guard=0.5, telemetry=True)


def final_fib(run):
    """{(node, prefix): next_hop} at end of run, from the FIB change log."""
    state = {}
    for change in run.fib_log:
        state[(change.node, change.prefix)] = change.next_hop
    return state


class TestBatchedRunEquivalence:
    """Batching and MRAI mode change packing/pacing, not the fixed point."""

    @pytest.fixture(scope="class")
    def runs(self):
        scenario = tdown_clique(5)
        variants = {
            "plain": BgpConfig(**FAST),
            "batched": BgpConfig(batch_updates=True, **FAST),
            "per_peer": BgpConfig(
                mrai_mode=MRAI_PER_PEER, batch_updates=True, **FAST
            ),
        }
        return {
            name: run_experiment(
                scenario, config, TELEMETRY, seed=0, keep_network=True
            )
            for name, config in variants.items()
        }

    def test_all_converge(self, runs):
        for run in runs.values():
            assert run.converged

    def test_same_final_fib_state(self, runs):
        states = {name: final_fib(run) for name, run in runs.items()}
        assert states["plain"] == states["batched"] == states["per_peer"]

    def test_batched_run_sends_batches(self, runs):
        metrics = runs["batched"].metrics
        assert metrics.counter("net.messages_sent.UpdateBatch") > 0

    def test_multiprefix_batches_pack_many_prefixes(self):
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            BgpConfig(batch_updates=True, mrai_mode=MRAI_PER_PEER, **FAST),
            SETTINGS,
            seed=0,
            keep_network=True,
        )
        assert run.converged
        sizes = [
            record.message.size
            for record in run.network.trace
            if isinstance(record.message, UpdateBatch)
        ]
        assert sizes and max(sizes) > 1  # at least one genuinely multi-prefix

    def test_invariants_hold_after_batched_churn(self):
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            BgpConfig(batch_updates=True, **FAST),
            RunSettings(failure_guard=0.5, sanitize=True),
            seed=1,
            keep_network=True,
        )
        assert run.converged
        for node_id in sorted(run.network.nodes):
            run.network.nodes[node_id].check_invariants()
