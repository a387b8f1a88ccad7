"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.bgp import BgpConfig, BgpSpeaker
from repro.dataplane import FibChangeLog
from repro.engine import RandomStreams, Scheduler
from repro.net import Network

# Nightly depth for properties that do not pin their own example count
# (select with ``--hypothesis-profile=deep``); tier-1 keeps the default 100.
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=12345)


@pytest.fixture
def fast_config() -> BgpConfig:
    """A BGP config with small timers so tests run fast in simulated time.

    Zero-width processing delay keeps behavior deterministic per seed while
    still exercising the serialized-processing code path.
    """
    return BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))


@pytest.fixture
def bgp_network_factory(scheduler):
    """Factory: build a Network of BgpSpeakers over a topology.

    Returns ``(network, fib_log)``; the destination is NOT originated —
    tests do that explicitly so they control the timeline.
    """

    def build(topology, config=None, seed=7, policy=None):
        config = config or BgpConfig(mrai=2.0, processing_delay=(0.01, 0.05))
        streams = RandomStreams(seed)
        fib_log = FibChangeLog()

        def factory(node_id, sched):
            return BgpSpeaker(
                node_id,
                sched,
                config=config,
                streams=streams,
                policy=policy,
                fib_listener=fib_log.record,
            )

        network = Network(topology, scheduler, factory)
        return network, fib_log

    return build


def run_to_quiescence(scheduler: Scheduler, max_events: int = 500_000) -> float:
    """Convenience wrapper used across protocol tests."""
    return scheduler.run(max_events=max_events)


@pytest.fixture
def quiesce():
    return run_to_quiescence
