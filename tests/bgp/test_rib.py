"""Unit tests for the three RIBs."""

import pytest

from repro.bgp import (
    NOTHING_SENT,
    AdjRibIn,
    AdjRibOut,
    AsPath,
    LocRib,
    Route,
    RoutingPolicy,
)


def route_via(neighbor, *path_tail, prefix="d"):
    return Route(prefix=prefix, path=AsPath((neighbor,) + path_tail), next_hop=neighbor)


class TestAdjRibIn:
    def test_put_get(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0))
        assert rib.get(5, "d") == route_via(5, 0)
        assert rib.get(5, "x") is None
        assert rib.get(9, "d") is None

    def test_put_replaces(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0))
        rib.put(5, route_via(5, 4, 0))
        assert rib.get(5, "d") == route_via(5, 4, 0)
        assert len(rib) == 1

    def test_remove(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0))
        assert rib.remove(5, "d") == route_via(5, 0)
        assert rib.remove(5, "d") is None
        assert len(rib) == 0

    def test_drop_neighbor_returns_affected_prefixes(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0, prefix="a"))
        rib.put(5, route_via(5, 0, prefix="b"))
        rib.put(6, route_via(6, 0, prefix="a"))
        assert rib.drop_neighbor(5) == ["a", "b"]
        assert rib.get(5, "a") is None
        assert rib.get(6, "a") is not None

    def test_candidates_in_neighbor_order(self):
        rib = AdjRibIn()
        rib.put(9, route_via(9, 0))
        rib.put(2, route_via(2, 0))
        assert [r.next_hop for r in rib.candidates("d")] == [2, 9]

    def test_neighbors_with(self):
        rib = AdjRibIn()
        rib.put(9, route_via(9, 0))
        rib.put(2, route_via(2, 0, prefix="other"))
        assert rib.neighbors_with("d") == [9]

    def test_entries_iteration(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0, prefix="b"))
        rib.put(5, route_via(5, 0, prefix="a"))
        rib.put(3, route_via(3, 0, prefix="a"))
        pairs = [(n, r.prefix) for n, r in rib.entries()]
        assert pairs == [(3, "a"), (5, "a"), (5, "b")]


class TestAdjRibInSharing:
    """Copy-on-write structural sharing across prefixes (group_count is the
    diagnostic; every value-level behavior above must hold regardless)."""

    def fill(self, rib, prefixes):
        for prefix in prefixes:
            rib.put(5, route_via(5, 0, prefix=prefix))
            rib.put(6, route_via(6, 4, 0, prefix=prefix))

    def test_identical_candidate_sets_share_one_group(self):
        rib = AdjRibIn()
        self.fill(rib, ("a", "b", "c"))
        assert len(rib) == 6
        assert rib.group_count() == 1
        assert rib.candidates("a") == [
            route_via(5, 0, prefix="a"),
            route_via(6, 4, 0, prefix="a"),
        ]

    def test_diverging_prefix_splits_its_group(self):
        rib = AdjRibIn()
        self.fill(rib, ("a", "b"))
        rib.put(5, route_via(5, 9, 0, prefix="b"))
        assert rib.group_count() == 2
        assert rib.get(5, "a") == route_via(5, 0, prefix="a")
        assert rib.get(5, "b") == route_via(5, 9, 0, prefix="b")

    def test_reconverging_prefix_remerges(self):
        rib = AdjRibIn()
        self.fill(rib, ("a", "b"))
        rib.put(5, route_via(5, 9, 0, prefix="b"))  # diverge
        rib.put(5, route_via(5, 0, prefix="b"))  # converge back
        assert rib.group_count() == 1

    def test_remove_splits_then_remerges(self):
        rib = AdjRibIn()
        self.fill(rib, ("a", "b"))
        assert rib.remove(5, "b") == route_via(5, 0, prefix="b")
        assert rib.group_count() == 2
        assert rib.remove(5, "a") == route_via(5, 0, prefix="a")
        assert rib.group_count() == 1
        assert rib.neighbors_with("a") == [6]

    def test_drop_neighbor_with_shared_groups(self):
        rib = AdjRibIn()
        self.fill(rib, ("a", "b"))
        assert rib.drop_neighbor(5) == ["a", "b"]
        assert rib.group_count() == 1
        assert rib.candidates("a") == [route_via(6, 4, 0, prefix="a")]

    def test_reads_hand_back_interned_instances(self):
        rib = AdjRibIn()
        rib.put(5, route_via(5, 0))
        route = rib.get(5, "d")
        assert route is Route.of("d", AsPath((5, 0)), 5)
        assert rib.candidates("d")[0] is route

    def test_base_preference_key_still_shares(self):
        policy = RoutingPolicy()
        rib = AdjRibIn(policy.preference_key)
        self.fill(rib, ("a", "b"))
        assert rib.group_count() == 1
        assert rib.best("a") == route_via(5, 0, prefix="a")
        assert rib.best("b") == route_via(5, 0, prefix="b")

    def test_custom_preference_key_disables_sharing(self):
        # A prefix-dependent ranking must not be shared across prefixes.
        rib = AdjRibIn(lambda route: (route.prefix, route.hop_count))
        self.fill(rib, ("a", "b"))
        assert rib.group_count() == 2
        assert rib.best("a") == route_via(5, 0, prefix="a")


class TestLocRib:
    def test_set_get_remove(self):
        rib = LocRib()
        rib.set(route_via(5, 0))
        assert rib.get("d") == route_via(5, 0)
        assert "d" in rib
        assert rib.remove("d") == route_via(5, 0)
        assert rib.get("d") is None
        assert rib.remove("d") is None

    def test_prefixes_sorted(self):
        rib = LocRib()
        rib.set(route_via(5, 0, prefix="z"))
        rib.set(route_via(5, 0, prefix="a"))
        assert rib.prefixes() == ["a", "z"]
        assert len(rib) == 2


class TestAdjRibOut:
    def test_nothing_sent_initially(self):
        rib = AdjRibOut()
        assert rib.last_sent(5, "d") == NOTHING_SENT
        assert rib.last_sent(5, "d").path is None

    def test_record_announcement(self):
        rib = AdjRibOut()
        rib.record(5, "d", AsPath((1, 0)))
        state = rib.last_sent(5, "d")
        assert state.path == AsPath((1, 0))

    def test_withdrawal_equals_nothing_sent(self):
        """Explicit withdrawal and never-sent must compare equal: in both
        cases the peer holds nothing from us (duplicate suppression)."""
        rib = AdjRibOut()
        rib.record(5, "d", AsPath((1, 0)))
        rib.record(5, "d", None)
        assert rib.last_sent(5, "d") == NOTHING_SENT

    def test_drop_neighbor(self):
        rib = AdjRibOut()
        rib.record(5, "d", AsPath((1, 0)))
        rib.drop_neighbor(5)
        assert rib.last_sent(5, "d") == NOTHING_SENT
