"""Unit tests for Route."""

import pickle

import pytest

from repro.bgp import AsPath, Route, intern_route, local_route


class TestValidation:
    def test_stored_path_must_start_at_next_hop(self):
        with pytest.raises(ValueError):
            Route(prefix="d", path=AsPath((5, 0)), next_hop=4)

    def test_non_local_route_needs_next_hop(self):
        with pytest.raises(ValueError):
            Route(prefix="d", path=AsPath((5, 0)), next_hop=None)

    def test_valid_learned_route(self):
        route = Route(prefix="d", path=AsPath((5, 0)), next_hop=5)
        assert not route.is_local
        assert route.hop_count == 2

    def test_local_route_helper(self):
        route = local_route("d")
        assert route.is_local
        assert route.hop_count == 0
        assert route.path.is_empty


class TestBehavior:
    def test_advertised_by_prepends(self):
        route = Route(prefix="d", path=AsPath((5, 0)), next_hop=5)
        assert route.advertised_by(7) == AsPath((7, 5, 0))

    def test_equality_respects_local_pref(self):
        a = Route(prefix="d", path=AsPath((5, 0)), next_hop=5, local_pref=100)
        b = Route(prefix="d", path=AsPath((5, 0)), next_hop=5, local_pref=200)
        assert a != b


class TestInterning:
    def test_same_key_is_same_object(self):
        a = intern_route("d", AsPath((5, 0)), 5)
        b = intern_route("d", AsPath((5, 0)), 5)
        assert a is b
        assert Route.of("d", AsPath((5, 0)), 5) is a

    def test_distinct_keys_are_distinct(self):
        a = intern_route("d", AsPath((5, 0)), 5)
        b = intern_route("d", AsPath((5, 0)), 5, local_pref=200)
        assert a is not b and a != b

    def test_uninterned_path_lands_on_shared_instance(self):
        # A fresh (non-canonical) AsPath argument must still hit the table.
        a = intern_route("d", AsPath.of((5, 0)), 5)
        b = intern_route("d", AsPath((5, 0)), 5)
        assert a is b
        assert a.path is AsPath.of((5, 0))

    def test_direct_construction_compares_equal_to_canonical(self):
        direct = Route(prefix="d", path=AsPath((5, 0)), next_hop=5)
        canonical = intern_route("d", AsPath((5, 0)), 5)
        assert direct == canonical
        assert hash(direct) == hash(canonical)
        assert direct is not canonical

    def test_local_route_default_is_interned(self):
        assert local_route("d") is local_route("d")

    def test_pickle_round_trips_by_value(self):
        route = intern_route("d", AsPath((5, 0)), 5)
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        assert hash(clone) == hash(route)
        assert clone is not route
