"""Tests for the four convergence enhancements.

Unit tests exercise each variant's decision function directly; conformance
tests run real simulations and assert the variant's defining property on the
message trace.
"""

from repro.bgp import (
    AdjRibIn,
    Announcement,
    AsPath,
    BgpConfig,
    Route,
    ShortestPathPolicy,
    Withdrawal,
)
from repro.bgp.variants import (
    converts_to_withdrawal,
    should_flush,
    stale_entries,
    withdrawals_rate_limited,
)
from repro.experiments import RunSettings, run_experiment, tdown_clique

PREFIX = "dest"
FAST = dict(mrai=2.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(packet_rate=10.0, failure_guard=0.5)
TELEMETRY = RunSettings(packet_rate=10.0, failure_guard=0.5, telemetry=True)


def run(config, n=5, seed=3, settings=SETTINGS):
    return run_experiment(
        tdown_clique(n), config, settings=settings, seed=seed, keep_network=True
    )


# ----------------------------------------------------------------------
# Unit level
# ----------------------------------------------------------------------


class TestSsldUnit:
    def test_converts_when_receiver_in_path(self):
        assert converts_to_withdrawal(4, AsPath((5, 4, 0)))

    def test_no_conversion_otherwise(self):
        assert not converts_to_withdrawal(7, AsPath((5, 4, 0)))


class TestWrateUnit:
    def test_flag_passthrough(self):
        assert withdrawals_rate_limited(BgpConfig(wrate=True))
        assert not withdrawals_rate_limited(BgpConfig())


class TestGhostFlushingUnit:
    def test_flush_on_longer_path(self):
        last = AsPath((5, 4, 0))
        assert should_flush(last, AsPath((5, 6, 4, 0)))

    def test_no_flush_on_shorter_or_equal_path(self):
        last = AsPath((5, 6, 4, 0))
        assert not should_flush(last, AsPath((5, 4, 0)))
        assert not should_flush(last, AsPath((5, 9, 8, 0)))

    def test_no_flush_when_nothing_was_sent(self):
        assert not should_flush(None, AsPath((5, 4, 0)))

    def test_no_flush_for_plain_withdrawal(self):
        assert not should_flush(AsPath((5, 4, 0)), None)


class TestAssertionUnit:
    def make_rib(self):
        rib = AdjRibIn(ShortestPathPolicy().preference_key)
        # Neighbor 6's path goes through 4; neighbor 7's does not.
        rib.put(6, Route(prefix=PREFIX, path=AsPath((6, 4, 0)), next_hop=6))
        rib.put(7, Route(prefix=PREFIX, path=AsPath((7, 8, 0)), next_hop=7))
        return rib

    def test_withdrawal_invalidates_paths_through_updater(self):
        rib = self.make_rib()
        assert stale_entries(rib, PREFIX, updating_neighbor=4, new_path=None) == [6]

    def test_consistent_subpath_survives(self):
        rib = self.make_rib()
        # 4 announces (4 0): 6's stored (6 4 0) has suffix (4 0) — consistent.
        assert stale_entries(rib, PREFIX, 4, AsPath((4, 0))) == []

    def test_inconsistent_subpath_invalidated(self):
        rib = self.make_rib()
        # 4 now reaches 0 via 9: 6's stored suffix (4 0) is stale.
        assert stale_entries(rib, PREFIX, 4, AsPath((4, 9, 0))) == [6]

    def test_updating_neighbor_itself_excluded(self):
        rib = self.make_rib()
        assert 6 not in stale_entries(rib, PREFIX, 6, AsPath((6, 9, 0)))

    def test_paths_not_through_updater_untouched(self):
        rib = self.make_rib()
        assert 7 not in stale_entries(rib, PREFIX, 4, None)


# ----------------------------------------------------------------------
# Conformance on real simulations
# ----------------------------------------------------------------------


class TestSsldConformance:
    def test_no_announcement_ever_contains_its_receiver(self):
        done = run(BgpConfig(ssld=True, **FAST))
        for record in done.network.trace:
            if isinstance(record.message, Announcement):
                assert record.dst not in record.message.path

    def test_standard_bgp_does_send_receiver_containing_paths(self):
        """The contrast case: without SSLD such announcements exist (they
        are the path-based poison-reverse signal)."""
        done = run(BgpConfig(**FAST))
        offending = [
            r
            for r in done.network.trace
            if isinstance(r.message, Announcement) and r.dst in r.message.path
        ]
        assert offending, "expected poison-reverse announcements in standard BGP"

    def test_ssld_counter_increments(self):
        done = run(BgpConfig(ssld=True, **FAST), settings=TELEMETRY)
        assert done.metrics.counter("bgp.variant.ssld_conversion") > 0


class TestWrateConformance:
    @staticmethod
    def update_spacing_violations(trace, mrai, jitter_low, include_withdrawals):
        """(src, dst) pairs whose consecutive rate-limited updates are closer
        than the minimum jittered MRAI."""
        last_sent = {}
        violations = []
        for record in trace:
            is_ann = isinstance(record.message, Announcement)
            is_wd = isinstance(record.message, Withdrawal)
            if not is_ann and not is_wd:
                continue
            if is_wd and not include_withdrawals:
                # Standard BGP: withdrawals neither wait for nor reset MRAI.
                continue
            key = (record.src, record.dst)
            prev = last_sent.get(key)
            if prev is not None and record.time - prev < jitter_low * mrai - 1e-9:
                violations.append((key, prev, record.time))
            last_sent[key] = record.time
        return violations

    def test_standard_announcements_respect_mrai(self):
        done = run(BgpConfig(**FAST))
        violations = self.update_spacing_violations(
            done.network.trace, mrai=2.0, jitter_low=0.75, include_withdrawals=False
        )
        assert violations == []

    def test_wrate_spaces_all_updates(self):
        done = run(BgpConfig(wrate=True, **FAST))
        violations = self.update_spacing_violations(
            done.network.trace, mrai=2.0, jitter_low=0.75, include_withdrawals=True
        )
        assert violations == []

    def test_standard_sends_withdrawals_inside_mrai_window(self):
        """Contrast: standard BGP withdrawals may follow an announcement
        within the MRAI window (they are exempt)."""
        done = run(BgpConfig(**FAST), n=6)
        trace = list(done.network.trace)
        last_ann = {}
        found = False
        for record in trace:
            key = (record.src, record.dst)
            if isinstance(record.message, Announcement):
                last_ann[key] = record.time
            elif isinstance(record.message, Withdrawal):
                prev = last_ann.get(key)
                if prev is not None and record.time - prev < 0.75 * 2.0:
                    found = True
        assert found, "expected at least one MRAI-exempt withdrawal"


class TestGhostFlushingConformance:
    def test_sends_flush_withdrawals(self):
        done = run(BgpConfig(ghost_flushing=True, **FAST), n=6, settings=TELEMETRY)
        assert done.metrics.counter("bgp.variant.ghost_flush") > 0

    def test_reduces_convergence_time_vs_standard(self):
        standard = run(BgpConfig(**FAST), n=6)
        flushing = run(BgpConfig(ghost_flushing=True, **FAST), n=6)
        assert (
            flushing.result.convergence_time < standard.result.convergence_time
        )


class TestAssertionConformance:
    def test_assertion_removes_routes(self):
        done = run(BgpConfig(assertion=True, **FAST), n=6, settings=TELEMETRY)
        assert done.metrics.counter("bgp.variant.assertion_removal") > 0

    def test_reduces_looping_vs_standard_in_clique(self):
        standard = run(BgpConfig(**FAST), n=6)
        asserted = run(BgpConfig(assertion=True, **FAST), n=6)
        assert asserted.result.ttl_exhaustions < standard.result.ttl_exhaustions

    def test_invariants_hold_with_assertion(self):
        done = run(BgpConfig(assertion=True, **FAST), n=5)
        for node in done.network.nodes.values():
            node.check_invariants()
