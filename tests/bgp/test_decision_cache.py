"""Golden tests: the incremental decision cache matches the naive ranking.

The ranked Adj-RIB-In re-ranks only the changed peer's entry per UPDATE;
``DecisionProcess.select_naive`` re-derives the winner with the original
full scan.  These tests drive both through identical mutation histories —
a scripted churn fuzz and a complete seeded 8-clique Tdown run — and
assert the two selections never diverge, including under a ``usable``
filter (damping suppression) and local origination tie-breaks.
"""

import random

from repro.bgp import AsPath, BgpConfig
from repro.bgp.decision import DecisionProcess
from repro.bgp.policy import ShortestPathPolicy
from repro.bgp.rib import AdjRibIn
from repro.bgp.route import Route
from repro.experiments import RunSettings
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import tdown_clique

PREFIXES = ("d0", "d1")
NEIGHBORS = tuple(range(1, 7))


def make_route(rng, neighbor, prefix):
    tail = rng.sample(range(100, 120), rng.randint(0, 4))
    return Route(
        prefix=prefix, path=AsPath.of((neighbor, *tail)), next_hop=neighbor
    )


class TestRankedMatchesNaiveUnderChurn:
    def _churn(self, usable=None):
        rng = random.Random(20260806)
        policy = ShortestPathPolicy()
        decision = DecisionProcess(policy)
        ranked = AdjRibIn(preference_key=policy.preference_key)
        naive = AdjRibIn(preference_key=policy.preference_key)
        for _ in range(400):
            roll = rng.random()
            neighbor = rng.choice(NEIGHBORS)
            prefix = rng.choice(PREFIXES)
            if roll < 0.6:
                route = make_route(rng, neighbor, prefix)
                ranked.put(neighbor, route)
                naive.put(neighbor, route)
            elif roll < 0.85:
                assert ranked.remove(neighbor, prefix) == naive.remove(
                    neighbor, prefix
                )
            else:
                assert ranked.drop_neighbor(neighbor) == naive.drop_neighbor(
                    neighbor
                )
            for check_prefix in PREFIXES:
                for originated in (False, True):
                    cached = decision.select(
                        check_prefix, ranked, originated, usable
                    )
                    reference = decision.select_naive(
                        check_prefix, naive, originated, usable
                    )
                    assert cached == reference
        assert len(ranked) == len(naive)

    def test_plain_selection(self):
        self._churn()

    def test_selection_under_usable_filter(self):
        # Mimics damping suppression: odd next hops are ineligible but
        # stay stored, so the ranked fast path must skip, not drop, them.
        self._churn(usable=lambda route: route.next_hop % 2 == 0)

    def test_replacement_reranks_single_entry(self):
        policy = ShortestPathPolicy()
        rib = AdjRibIn(preference_key=policy.preference_key)
        long_route = Route(
            prefix="d0", path=AsPath.of((1, 101, 102)), next_hop=1
        )
        short_route = Route(prefix="d0", path=AsPath.of((2, 101)), next_hop=2)
        rib.put(1, long_route)
        rib.put(2, short_route)
        assert rib.best("d0") == short_route
        # Peer 1 improves: replacement must displace the old entry, not
        # accumulate beside it.
        better = Route(prefix="d0", path=AsPath.of((1,)), next_hop=1)
        rib.put(1, better)
        assert rib.best("d0") == better
        assert len(rib) == 2
        rib.remove(1, "d0")
        assert rib.best("d0") == short_route

    def test_neighbor_tie_break_matches_first_encountered_min(self):
        policy = ShortestPathPolicy()
        decision = DecisionProcess(policy)
        ranked = AdjRibIn(preference_key=policy.preference_key)
        naive = AdjRibIn(preference_key=policy.preference_key)
        # Identical preference keys (same hop count differs only in next
        # hop rank... make them truly tie: same length, next_hop differs,
        # so preference_key differs by next_hop_rank and the smaller
        # neighbor must win in both).
        for neighbor in (5, 3, 4):
            route = Route(
                prefix="d0", path=AsPath.of((neighbor, 100)), next_hop=neighbor
            )
            ranked.put(neighbor, route)
            naive.put(neighbor, route)
        cached = decision.select("d0", ranked, originated=False)
        reference = decision.select_naive("d0", naive, originated=False)
        assert cached == reference
        assert cached.next_hop == 3


class TestEightCliqueGolden:
    def test_seeded_tdown_run_cache_matches_naive(self):
        # sanitize=True cross-checks cached-vs-naive at every decision the
        # run makes (RibCoherenceSanitizer); the post-run sweep below then
        # re-verifies the final RIB state speaker by speaker.
        run = run_experiment(
            tdown_clique(8),
            BgpConfig(mrai=2.0),
            RunSettings(sanitize=True),
            seed=0,
            keep_network=True,
        )
        assert run.converged
        network = run.network
        prefix = run.scenario.prefix
        for node_id in sorted(network.nodes):
            speaker = network.nodes[node_id]
            assert speaker._select_best(prefix) == speaker._select_best_naive(
                prefix
            )
            speaker.check_invariants()
