#!/usr/bin/env python
"""The paper's Figure 1, step by step: how a transient BGP loop forms.

Builds the exact 7-node topology of Figure 1, converges it, fails link
[4 0], and narrates what happens: nodes 5 and 6 fail over to each other's
stale paths, packets loop between them, and the loop resolves when the
path-based poison reverse information propagates.
"""

from repro import BgpConfig, Scheduler
from repro.bgp import BgpSpeaker
from repro.core import loop_timeline
from repro.dataplane import FibChangeLog
from repro.engine import RandomStreams
from repro.net import LinkFailure, Network
from repro.topology import Topology

PREFIX = "dest"


def figure1_topology() -> Topology:
    return Topology.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 6), (4, 5), (4, 6), (5, 6), (0, 4)],
        name="figure-1",
    )


def show_paths(network, label: str) -> None:
    print(f"\n  {label}")
    for nid in (4, 5, 6):
        path = network.node(nid).full_path(PREFIX)
        shown = repr(path) if path is not None else "(no route)"
        print(f"    node {nid}: best path {shown}")


def main() -> None:
    scheduler = Scheduler()
    streams = RandomStreams(7)
    fib_log = FibChangeLog()
    config = BgpConfig.standard(mrai=30.0)
    network = Network(
        figure1_topology(),
        scheduler,
        lambda nid, sch: BgpSpeaker(
            nid, sch, config=config, streams=streams, fib_listener=fib_log.record
        ),
    )

    print("Figure 1 topology: destination behind node 0; node 4 holds the")
    print("direct link; 5 and 6 sit behind 4 and peer with each other;")
    print("node 6 also has the long backup chain 6-3-2-1-0.")

    network.node(0).originate(PREFIX)
    network.start()
    scheduler.run(max_events=100_000)
    show_paths(network, "After initial convergence (Figure 1a):")

    failure_time = scheduler.now + 1.0
    LinkFailure(0, 4, at=failure_time).inject(network)
    scheduler.run(max_events=100_000)
    show_paths(network, "After link [4 0] fails and BGP re-converges (Figure 1c):")

    print("\n  Transient loops that existed in between (Figure 1b):")
    for interval in loop_timeline(fib_log, PREFIX, failure_time, scheduler.now):
        members = " <-> ".join(str(n) for n in interval.cycle)
        print(
            f"    loop [{members}] formed at t={interval.start:.2f}s, "
            f"lasted {interval.duration:.2f}s"
        )
    print(
        "\n  The 5 <-> 6 loop is the paper's example: both nodes failed over"
        "\n  to stale paths through each other, and the loop resolved only"
        "\n  when their (MRAI-delayed) announcements crossed and the"
        "\n  path-based poison reverse discarded the inconsistent routes."
    )


if __name__ == "__main__":
    main()
