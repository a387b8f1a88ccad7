"""Each node's port table agrees with the network under fault injection.

A node reads link state from its own ``neighbor -> Link`` table; the
network reads it from its edge-keyed links.  Both are views of the same
:class:`~repro.net.link.Link` objects, so every failure, repair, session
reset, crash and restart must leave them equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Scheduler
from repro.errors import NetworkError
from repro.net import Network, Node
from repro.topology import Topology


class Quiet(Node):
    def handle_message(self, src, message):
        pass


def topology() -> Topology:
    """A 4-clique with a pendant node: adjacent and non-adjacent pairs,
    and a node whose crash isolates a neighbor."""
    graph = Topology()
    for u in range(4):
        for v in range(u + 1, 4):
            graph.add_edge(u, v, delay=0.002)
    graph.add_edge(3, 4, delay=0.002)
    return graph


EDGES = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(3, 4)]
NODES = range(5)

FAULTS = st.lists(
    st.one_of(
        st.tuples(st.just("fail"), st.sampled_from(EDGES), st.booleans()),
        st.tuples(st.just("restore"), st.sampled_from(EDGES)),
        st.tuples(st.just("reset"), st.sampled_from(EDGES)),
        st.tuples(st.just("crash"), st.sampled_from(NODES), st.booleans()),
        st.tuples(st.just("restart"), st.sampled_from(NODES)),
    ),
    max_size=25,
)


def assert_views_agree(net: Network) -> None:
    for a in NODES:
        node = net.node(a)
        for b in NODES:
            assert node.link_is_up(b) == net.link_is_up(a, b), (a, b)
        live = [b for b in net.topology.neighbors(a) if net.link_is_up(a, b)]
        assert node.neighbors == sorted(live), a
        for b in NODES:
            if b != a and not net.link_is_up(a, b):
                with pytest.raises(NetworkError):
                    node.send(b, "x")


@given(FAULTS)
@settings(deadline=None)
def test_port_tables_follow_every_fault(faults):
    scheduler = Scheduler()
    net = Network(topology(), scheduler, lambda nid, sch: Quiet(nid, sch))
    assert_views_agree(net)
    for fault in faults:
        kind, target = fault[0], fault[1]
        if kind == "fail":
            net.fail_link(*target, silent=fault[2])
        elif kind == "restore":
            net.restore_link(*target)
        elif kind == "reset":
            net.reset_session(*target)
        elif kind == "crash":
            net.crash_node(target, silent=fault[2])
        else:
            net.restart_node(target)
        assert_views_agree(net)
    scheduler.run()


def test_send_on_a_missing_or_down_link_raises(scheduler):
    net = Network(topology(), scheduler, lambda nid, sch: Quiet(nid, sch))
    with pytest.raises(NetworkError, match="no link"):
        net.node(0).send(4, "x")
    net.fail_link(0, 1)
    with pytest.raises(NetworkError, match="down"):
        net.node(0).send(1, "x")
    assert len(net.trace) == 0  # refused sends are not traced
