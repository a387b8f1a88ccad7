"""Unit tests for the decision process."""

import pytest

from repro.bgp import AdjRibIn, AsPath, DecisionProcess, Route, ShortestPathPolicy


def route_via(neighbor, *tail, prefix="d"):
    return Route(prefix=prefix, path=AsPath((neighbor,) + tail), next_hop=neighbor)


@pytest.fixture
def decision():
    return DecisionProcess(ShortestPathPolicy())


@pytest.fixture
def rib():
    return AdjRibIn()


class TestSelect:
    def test_no_candidates_returns_none(self, decision, rib):
        assert decision.select("d", rib, originated=False) is None

    def test_origination_selected_when_alone(self, decision, rib):
        best = decision.select("d", rib, originated=True)
        assert best is not None and best.is_local

    def test_origination_beats_learned_routes(self, decision, rib):
        rib.put(5, route_via(5, 0))
        best = decision.select("d", rib, originated=True)
        assert best.is_local

    def test_shortest_path_wins(self, decision, rib):
        rib.put(5, route_via(5, 0))
        rib.put(6, route_via(6, 7, 0))
        assert decision.select("d", rib, originated=False).next_hop == 5

    def test_tie_break_by_neighbor_id(self, decision, rib):
        rib.put(9, route_via(9, 0))
        rib.put(3, route_via(3, 0))
        assert decision.select("d", rib, originated=False).next_hop == 3

    def test_candidates_includes_origin_first(self, decision, rib):
        rib.put(5, route_via(5, 0))
        candidates = decision.candidates("d", rib, originated=True)
        assert candidates[0].is_local
        assert len(candidates) == 2
