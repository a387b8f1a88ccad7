"""Unit tests for routing policies."""

import pytest

from repro.bgp import (
    AsPath,
    Route,
    ShortestPathPolicy,
    local_route,
)


def route_via(neighbor, *tail, prefix="d", local_pref=100):
    return Route(
        prefix=prefix,
        path=AsPath((neighbor,) + tail),
        next_hop=neighbor,
        local_pref=local_pref,
    )


class TestShortestPathPolicy:
    def test_shorter_path_preferred(self):
        policy = ShortestPathPolicy()
        short = route_via(9, 0)
        long = route_via(2, 7, 0)
        assert policy.preference_key(short) < policy.preference_key(long)

    def test_tie_broken_by_smaller_next_hop(self):
        policy = ShortestPathPolicy()
        low = route_via(2, 0)
        high = route_via(9, 0)
        assert policy.preference_key(low) < policy.preference_key(high)

    def test_local_route_beats_everything(self):
        policy = ShortestPathPolicy()
        assert policy.preference_key(local_route("d")) < policy.preference_key(
            route_via(2, 0)
        )

    def test_higher_local_pref_wins_over_shorter_path(self):
        policy = ShortestPathPolicy()
        preferred = route_via(9, 8, 7, 0, local_pref=200)
        short = route_via(2, 0, local_pref=100)
        assert policy.preference_key(preferred) < policy.preference_key(short)

    def test_accepts_everything_by_default(self):
        policy = ShortestPathPolicy()
        assert policy.accept_import(5, route_via(5, 0))
        assert policy.accept_export(5, route_via(9, 0))
