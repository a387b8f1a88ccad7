"""Unit tests for routing policies."""

from repro.bgp import (
    AsPath,
    BgpConfig,
    BgpSpeaker,
    GaoRexfordPolicy,
    PathRankPolicy,
    Relationship,
    Route,
    RoutingPolicy,
    ShortestPathPolicy,
    local_route,
)
from repro.bgp.policy import reads_prefix
from repro.engine import RandomStreams, Scheduler
from repro.net import Network
from repro.topology import chain


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


class PreferB(RoutingPolicy):
    """Reads the prefix: routes for ``b`` get a higher LOCAL_PREF."""

    def local_pref(self, neighbor, route):
        return 200 if route.prefix == "b" else super().local_pref(neighbor, route)


class TestPrefixBlindHooks:
    def test_shipped_policies(self):
        assert not reads_prefix(ShortestPathPolicy())
        assert not reads_prefix(GaoRexfordPolicy({1: Relationship.PEER}))
        assert reads_prefix(PathRankPolicy(1, [(1, 0)]))

    def test_an_unmarked_override_reads_the_prefix(self):
        assert reads_prefix(PreferB())

    def test_one_update_imports_each_prefix_under_its_own_policy(self):
        """Both prefixes reach node 1 in one batched UPDATE with the same
        path; a policy that reads the prefix still sees each one."""
        config = BgpConfig(mrai_mode="per-peer", batch_updates=True)
        scheduler = Scheduler()
        streams = RandomStreams(0)
        network = Network(
            chain(2),
            scheduler,
            lambda node, sched: BgpSpeaker(
                node,
                sched,
                config=config,
                streams=streams,
                policy=PreferB() if node == 1 else None,
            ),
        )
        for prefix in ("a", "b"):
            network.node(0).originate(prefix)
        network.start()
        scheduler.run(max_events=10_000)
        speaker = network.node(1)
        assert speaker.best_route("a").local_pref == 100
        assert speaker.best_route("b").local_pref == 200
        speaker.check_invariants()
