"""The traffic-matrix evaluator: seeded matrices, LPM walks, and the edge
cases of change-driven evaluation.

The load-bearing contract — the change-driven report equals the naive
per-epoch ``multi_epochs`` + ``walk_lpm`` evaluation, rows and totals — is a
hypothesis property in ``tests/property/test_evaluator_properties.py``; the
cases here pin the enumerated traps by hand.
"""

import pytest

from repro.dataplane import (
    FibChangeLog,
    Flow,
    MultiPrefixFib,
    PacketFate,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    walk_lpm,
)
from repro.errors import AnalysisError, ConfigError

# Two /24s under one /22 cover, the /23 between them, and opaque names.
SPEC_A = "00000000/24"
SPEC_B = "00000100/24"
MID = "00000000/23"
COVER = "00000000/22"


class TestSeededMatrix:
    def test_same_seed_same_matrix(self):
        a = TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=7)
        b = TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=7)
        assert a == b

    def test_different_seed_different_rates(self):
        a = TrafficMatrix.seeded([1, 2, 3], [SPEC_A], seed=0)
        b = TrafficMatrix.seeded([1, 2, 3], [SPEC_A], seed=1)
        assert [f.rate for f in a.flows] != [f.rate for f in b.flows]

    def test_origins_do_not_send_to_own_prefix(self):
        matrix = TrafficMatrix.seeded(
            [1, 2, 3], [SPEC_A, SPEC_B], seed=0, origins={SPEC_A: (2,)}
        )
        senders = {f.source for f in matrix.flows if f.prefix == SPEC_A}
        assert senders == {1, 3}
        senders_b = {f.source for f in matrix.flows if f.prefix == SPEC_B}
        assert senders_b == {1, 2, 3}

    def test_structured_prefix_shares_one_destination(self):
        matrix = TrafficMatrix.seeded([1, 2, 3, 4], [SPEC_A], seed=3)
        destinations = {f.destination for f in matrix.flows}
        assert len(destinations) == 1
        address = destinations.pop()
        assert 0x000000 <= address < 0x000100  # inside the /24

    def test_opaque_prefix_keeps_string_destination(self):
        matrix = TrafficMatrix.seeded([1, 2], ["dest"], seed=0)
        assert {f.destination for f in matrix.flows} == {"dest"}

    def test_rates_within_range(self):
        matrix = TrafficMatrix.seeded(
            [1, 2, 3], [SPEC_A, SPEC_B], seed=5, rate_range=(2.0, 4.0)
        )
        assert all(2.0 <= f.rate <= 4.0 for f in matrix.flows)

    def test_bad_rate_range_rejected(self):
        with pytest.raises(ConfigError):
            TrafficMatrix.seeded([1], [SPEC_A], seed=0, rate_range=(0.0, 1.0))


class TestWalkLpm:
    def test_specific_shadows_cover(self):
        fib = MultiPrefixFib()
        # Node 1: cover says go to 2, specific says deliver here.
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 1)
        fib.set_entry(2, COVER, 2)
        result = walk_lpm(fib, 1, 0x00000050)  # inside SPEC_A
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 0

    def test_cover_catches_unmatched_specific_space(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 1)
        fib.set_entry(2, COVER, 2)
        # 0x00000350 is inside the /22 but outside SPEC_A -> cover route.
        result = walk_lpm(fib, 1, 0x00000350)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 1

    def test_no_route_drops(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, SPEC_A, 1)
        result = walk_lpm(fib, 1, 0x00000350)  # outside the only entry
        assert result.fate is PacketFate.DROPPED_NO_ROUTE

    def test_loop_detected(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, SPEC_A, 2)
        fib.set_entry(2, SPEC_A, 1)
        result = walk_lpm(fib, 1, 0x00000050)
        assert result.fate is PacketFate.TTL_EXPIRED
        assert result.loop is not None
        assert result.loop == (1, 2)

    def test_withdrawn_specific_falls_back_to_cover(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 3)
        fib.set_entry(1, SPEC_A, None)  # withdrawn: must not shadow cover
        fib.set_entry(2, COVER, 2)
        result = walk_lpm(fib, 1, 0x00000050)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 1


def scripted_log():
    """Three nodes, two prefixes, three epochs: clean, loop+blackhole, healed.

    Node 1 delivers SPEC_A locally throughout.  SPEC_B starts delivered at 3
    via 2; at t=1.0 nodes 2 and 3 loop on it while SPEC_A at node 2 loses its
    route; at t=2.0 everything heals.
    """
    log = FibChangeLog()
    log.record(0.0, 1, SPEC_A, 1)
    log.record(0.0, 2, SPEC_A, 1)
    log.record(0.0, 3, SPEC_A, 2)
    log.record(0.0, 2, SPEC_B, 3)
    log.record(0.0, 3, SPEC_B, 3)
    log.record(0.0, 1, SPEC_B, 2)
    log.record(1.0, 2, SPEC_B, 1)
    log.record(1.0, 1, SPEC_B, 2)  # 1 -> 2 -> 1 loop for SPEC_B
    log.record(1.0, 2, SPEC_A, None)  # blackhole SPEC_A at 2
    log.record(2.0, 2, SPEC_B, 3)
    log.record(2.0, 2, SPEC_A, 1)
    return log


def matrix_for_log():
    return TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=11)


class TestEvaluator:
    def test_report_accounting_consistent(self):
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log()
        ).evaluate(0.0, 3.0)
        assert report.offered > 0
        assert (
            report.delivered + report.blackholed + report.looped
            == report.offered
        )
        assert report.looped > 0 and report.blackholed > 0
        assert 0.0 < report.looped_fraction < 1.0

    def test_epoch_rows_cover_window(self):
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log()
        ).evaluate(0.0, 3.0)
        assert report.epoch_rows[0].start == 0.0
        assert report.epoch_rows[-1].end == 3.0
        for left, right in zip(report.epoch_rows, report.epoch_rows[1:]):
            assert left.end == right.start
        assert sum(r.offered for r in report.epoch_rows) == report.offered

    def test_empty_matrix_rejected(self):
        with pytest.raises(AnalysisError):
            TrafficMatrixEvaluator(scripted_log(), TrafficMatrix(flows=()))

    def test_backward_window_rejected(self):
        evaluator = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log()
        )
        with pytest.raises(AnalysisError):
            evaluator.evaluate(2.0, 1.0)

    def test_small_ttl_dies_of_path_length_like_the_reference(self):
        """ttl=1 is below the two-hop paths 1 -> 2 -> 3 (SPEC_B) and
        3 -> 2 -> 1 (SPEC_A), so those packets expire in the loop-free first
        epoch; every row must equal that epoch's hop-by-hop ``walk_lpm``
        classification."""
        log, matrix = scripted_log(), matrix_for_log()
        report = TrafficMatrixEvaluator(log, matrix, ttl=1).evaluate(0.0, 3.0)
        assert len(report.epoch_rows) == 3
        # multi_epochs yields a live view: classify before advancing.
        for row, (t0, t1, fib, _changed) in zip(
            report.epoch_rows, log.multi_epochs(0.0, 3.0)
        ):
            looped = sum(
                flow.as_cbr().count_in(t0, t1)
                for flow in matrix.flows
                if walk_lpm(fib, flow.source, flow.destination, 1).fate
                is PacketFate.TTL_EXPIRED
            )
            assert (row.start, row.end, row.looped) == (t0, t1, looped)
        assert report.epoch_rows[0].looped > 0

    def test_totals_mode_matches_epoch_rows_mode(self):
        """``epoch_rows=False`` is the memory-lean 10k-prefix path: the
        totals must be bit-identical to the row-keeping evaluation, with
        the row log simply absent."""
        log, matrix = scripted_log(), matrix_for_log()
        full = TrafficMatrixEvaluator(log, matrix).evaluate(
            0.0, 3.0
        )
        lean = TrafficMatrixEvaluator(
            log, matrix, epoch_rows=False
        ).evaluate(0.0, 3.0)
        assert (lean.offered, lean.delivered, lean.blackholed, lean.looped) == (
            full.offered,
            full.delivered,
            full.blackholed,
            full.looped,
        )
        assert lean.epoch_rows == []
        assert full.epoch_rows

    def test_flow_count_matches_matrix(self):
        matrix = matrix_for_log()
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix
        ).evaluate(0.0, 1.0)
        assert report.flows == len(matrix.flows)
        assert report.prefixes == 2


class TestMultiEpochs:
    def test_epochs_split_on_any_prefix_change(self):
        log = scripted_log()
        boundaries = [
            (t0, t1) for t0, t1, _fib, _changed in log.multi_epochs(0.0, 3.0)
        ]
        assert boundaries == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_live_view_reflects_changes(self):
        log = scripted_log()
        states = []
        for _t0, _t1, fib, _changed in log.multi_epochs(0.0, 3.0):
            states.append(fib.next_hop(2, 0x00000150))  # SPEC_B space
        assert states == [3, 1, 3]


ADDR_A = 0x00000050  # inside SPEC_A
ADDR_B = 0x00000150  # inside SPEC_B


def totals(report):
    return (report.offered, report.delivered, report.blackholed, report.looped)


class TestChangeDriven:
    """The traps of resolving and re-walking only what a change can reach."""

    @staticmethod
    def log_of(changes):
        log = FibChangeLog()
        for time, node, prefix, hop in changes:
            log.record(time, node, prefix, hop)
        return log

    @staticmethod
    def flows(*triples):
        return TrafficMatrix(
            flows=tuple(
                Flow(source=s, prefix=p, destination=d, rate=10.0) for s, p, d in triples
            )
        )

    def test_withdrawn_specific_falls_back_to_its_cover(self):
        # Node 1 rides SPEC_A into a dead end until the specific is withdrawn
        # and the /22 cover (towards the delivering node 2) takes over.
        log = self.log_of(
            [(0.0, 2, COVER, 2), (0.0, 1, COVER, 2), (0.0, 1, SPEC_A, 3),
             (1.0, 1, SPEC_A, None)]
        )
        ev = TrafficMatrixEvaluator(log, self.flows((1, SPEC_A, ADDR_A)))
        report = ev.evaluate(0.0, 2.0)
        assert [(r.blackholed, r.delivered) for r in report.epoch_rows] == [
            (10, 0), (0, 10)
        ]

    def test_cover_change_under_a_shadowing_specific_moves_no_fate(self):
        # The cover moves at node 1, but SPEC_A still wins the match there:
        # one resolve, no re-walk — yet a row boundary, as there always was.
        log = self.log_of(
            [(0.0, 2, SPEC_A, 2), (0.0, 1, SPEC_A, 2), (0.0, 1, COVER, 2),
             (1.0, 1, COVER, 3)]
        )
        ev = TrafficMatrixEvaluator(log, self.flows((1, SPEC_A, ADDR_A)))
        report = ev.evaluate(0.0, 2.0)
        assert [(r.start, r.end, r.delivered) for r in report.epoch_rows] == [
            (0.0, 1.0, 10), (1.0, 2.0, 10)
        ]
        assert (ev.walks, ev.walks_invalidated) == (1, 0)
        # Start: nodes 1 and 2, once each (1's two entries share a resolve).
        assert ev.lpm_resolves == 2 + 1

    def test_change_covering_no_destination_costs_nothing(self):
        log = self.log_of(
            [(0.0, 2, SPEC_A, 2), (0.0, 1, SPEC_A, 2),
             (1.0, 1, SPEC_B, 3), (1.5, 1, "other", 3)]
        )
        ev = TrafficMatrixEvaluator(log, self.flows((1, SPEC_A, ADDR_A)))
        report = ev.evaluate(0.0, 2.0)
        assert [(r.start, r.end) for r in report.epoch_rows] == [(0.0, 2.0)]
        assert (ev.lpm_resolves, ev.change_instants) == (2, 3)

    def test_one_resolve_per_node_and_covered_destination(self):
        # The cover change at node 1 reaches both destinations under it; the
        # two changes node 2 makes in one instant resolve once.
        log = self.log_of(
            [(1.0, 1, COVER, 2), (2.0, 2, SPEC_A, 2), (2.0, 2, SPEC_A, 1)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A), (1, SPEC_B, ADDR_B))
        ev = TrafficMatrixEvaluator(log, matrix)
        ev.evaluate(0.0, 3.0)
        assert ev.lpm_resolves == 2 + 1

    def test_changes_of_one_instant_are_applied_before_any_re_walk(self):
        # Between the two records of t=1 node 1 would blackhole; no packet
        # ever saw that, and the flow — invalidated twice — is counted once.
        log = self.log_of(
            [(0.0, 3, SPEC_A, 3), (0.0, 2, SPEC_A, 3), (0.0, 1, SPEC_A, 2),
             (1.0, 2, SPEC_A, None), (1.0, 1, SPEC_A, 3)]
        )
        for rows in (True, False):
            ev = TrafficMatrixEvaluator(
                log, self.flows((1, SPEC_A, ADDR_A)), epoch_rows=rows
            )
            assert totals(ev.evaluate(0.0, 2.0)) == (20, 20, 0, 0)
            assert (ev.walks, ev.walks_invalidated) == (2, 1)

    def test_repeated_pairs_unknown_sources_and_the_destination_itself(self):
        log = self.log_of(
            [(0.0, 2, SPEC_A, 2), (0.0, 1, SPEC_A, 2), (0.0, 1, "dest", 1),
             (1.0, 1, SPEC_A, None)]
        )
        matrix = TrafficMatrix(
            flows=(
                Flow(1, SPEC_A, ADDR_A, rate=10.0),
                Flow(1, SPEC_A, ADDR_A, rate=5.0),   # the same pair again
                Flow(2, SPEC_A, ADDR_A, rate=10.0),  # sits on the deliverer
                Flow(9, SPEC_A, ADDR_A, rate=10.0),  # a node the log never names
                Flow(1, "dest", "dest", rate=10.0),  # opaque, matched by name
                Flow(2, "dest", "dest", rate=10.0),
            )
        )
        for rows in (True, False):
            ev = TrafficMatrixEvaluator(log, matrix, epoch_rows=rows)
            report = ev.evaluate(0.0, 2.0)
            # [0, 1): 15 + 10 + 10 delivered, 10 + 10 blackholed; then node
            # 1's two SPEC_A flows blackhole too.
            assert totals(report) == (110, 55, 55, 0)
            assert ev.walks == 5 + 1  # five distinct pairs, one re-walk

    def test_window_edges_absorb_at_start_and_ignore_at_end(self):
        log = self.log_of(
            [(0.0, 2, SPEC_A, 2), (1.0, 1, SPEC_A, 2), (2.0, 1, SPEC_A, None)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A))
        ev = TrafficMatrixEvaluator(log, matrix)
        assert totals(ev.evaluate(1.0, 2.0)) == (10, 10, 0, 0)
        assert totals(ev.evaluate(2.0, 3.0)) == (10, 0, 10, 0)
        empty = ev.evaluate(1.5, 1.5)
        assert totals(empty) == (0, 0, 0, 0) and empty.epoch_rows == []
        assert (empty.flows, empty.prefixes) == (1, 1)

    def test_one_instance_evaluates_several_windows_independently(self):
        log, matrix = scripted_log(), matrix_for_log()
        for rows in (True, False):
            shared = TrafficMatrixEvaluator(log, matrix, epoch_rows=rows)
            for window in [(0.0, 3.0), (1.5, 2.5), (0.0, 3.0), (1.0, 1.0)]:
                fresh = TrafficMatrixEvaluator(log, matrix, epoch_rows=rows)
                assert shared.evaluate(*window) == fresh.evaluate(*window)

    # Covering chains: each destination resolves to the first prefix of its
    # chain (every logged prefix containing it, most specific first) that
    # the node holds.  Each trap is checked against multi_epochs + walk_lpm.

    @staticmethod
    def oracle(log, matrix, start, end):
        """Totals of walking every flow by LPM in every multi-prefix epoch."""
        tally = dict.fromkeys(PacketFate, 0)
        for t0, t1, fib, _changed in log.multi_epochs(start, end):
            for flow in matrix.flows:
                fate = walk_lpm(fib, flow.source, flow.destination).fate
                tally[fate] += flow.as_cbr().count_in(t0, t1)
        return (
            sum(tally.values()),
            tally[PacketFate.DELIVERED],
            tally[PacketFate.DROPPED_NO_ROUTE],
            tally[PacketFate.TTL_EXPIRED],
        )

    def assert_oracle(self, log, matrix, window, expected):
        assert self.oracle(log, matrix, *window) == expected
        for rows in (True, False):
            ev = TrafficMatrixEvaluator(log, matrix, epoch_rows=rows)
            assert totals(ev.evaluate(*window)) == expected

    def test_nested_covers_with_the_middle_one_bounced_in_one_instant(self):
        # Node 1 holds /22 (into the 1 <-> 3 loop) and /23 (to the deliverer
        # 2); at t=1 the /23 is withdrawn and re-announced in one instant,
        # at t=2 a /24 towards the routeless node 4 shadows both, at t=3 it
        # goes.  Chains sorted shortest-first would loop for all 40 packets.
        log = self.log_of(
            [(0.0, 2, COVER, 2), (0.0, 3, COVER, 1), (0.0, 1, COVER, 3),
             (0.0, 1, MID, 2),
             (1.0, 1, MID, None), (1.0, 1, MID, 2),
             (2.0, 1, SPEC_A, 4),
             (3.0, 1, SPEC_A, None)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A))
        self.assert_oracle(log, matrix, (0.0, 4.0), (40, 30, 10, 0))

    def test_cover_first_logged_after_its_specific(self):
        # The /22 joins the chain behind the /24 it arrives after: it takes
        # over only once the /24 is withdrawn, and blackholes until node 3
        # learns it.
        log = self.log_of(
            [(0.0, 2, SPEC_A, 2), (0.0, 1, SPEC_A, 2),
             (1.0, 1, COVER, 3),
             (2.0, 1, SPEC_A, None),
             (3.0, 3, COVER, 3)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A))
        self.assert_oracle(log, matrix, (0.0, 4.0), (40, 30, 10, 0))

    def test_cover_logged_before_the_window_opens(self):
        # The /22 exists only in the batch absorbed at ``start``.
        log = self.log_of(
            [(0.0, 2, COVER, 2), (0.0, 1, COVER, 2),
             (1.0, 1, SPEC_A, 3),
             (2.0, 1, SPEC_A, None)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A))
        self.assert_oracle(log, matrix, (0.5, 3.0), (25, 15, 10, 0))

    def test_destinations_on_the_first_and_last_address_of_a_prefix(self):
        # SPEC_A's run of the sorted address list is exactly [0x000, 0x0ff]:
        # 0x100 and 0x3ff ride the /22, and 0x400 lies outside every prefix.
        log = self.log_of(
            [(0.0, 2, COVER, 2), (0.0, 1, COVER, 2), (0.0, 1, SPEC_A, 3),
             (1.0, 1, SPEC_A, None)]
        )
        matrix = self.flows(
            (1, SPEC_A, 0x000), (1, SPEC_A, 0x0FF), (1, SPEC_B, 0x100),
            (1, COVER, 0x3FF), (1, "00000400/24", 0x400),
        )
        # [0, 1): two blackholed at 3, two delivered, one routeless.
        self.assert_oracle(log, matrix, (0.0, 2.0), (100, 60, 40, 0))

    def test_opaque_and_structured_destinations_in_one_matrix(self):
        # "dest" matches only by name; "other" covers no destination.
        log = self.log_of(
            [(0.0, 2, "dest", 2), (0.0, 1, "dest", 2), (0.0, 3, COVER, 3),
             (0.0, 1, COVER, 3), (0.0, 1, "other", 9),
             (1.0, 1, "dest", None), (1.0, 1, SPEC_A, 2)]
        )
        matrix = self.flows((1, "dest", "dest"), (1, SPEC_A, ADDR_A))
        self.assert_oracle(log, matrix, (0.0, 2.0), (40, 20, 20, 0))

    def test_one_instance_over_two_windows_keeps_chains_not_tables(self):
        # Evaluating [2, 3) first puts the /24 into the chain and node 1's
        # table; [0, 1) must still deliver via the /22, as a fresh one does.
        log = self.log_of(
            [(0.0, 2, COVER, 2), (0.0, 1, COVER, 2), (2.0, 1, SPEC_A, 3)]
        )
        matrix = self.flows((1, SPEC_A, ADDR_A))
        for rows in (True, False):
            shared = TrafficMatrixEvaluator(log, matrix, epoch_rows=rows)
            for window, expected in [
                ((2.0, 3.0), (10, 0, 10, 0)), ((0.0, 1.0), (10, 10, 0, 0))
            ]:
                assert self.oracle(log, matrix, *window) == expected
                assert totals(shared.evaluate(*window)) == expected
