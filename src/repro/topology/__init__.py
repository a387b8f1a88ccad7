"""AS-level topologies: the graph type, generators, and file I/O.

The paper's three topology families are all here: :func:`clique` and
:func:`b_clique` (Figure 3), and :func:`internet_like` (the synthetic
substitute for the Internet-derived graphs, see DESIGN.md §2).
"""

from .generators import (
    b_clique,
    binary_tree,
    chain,
    clique,
    grid,
    named_generator,
    ring,
    ring_with_core,
    star,
)
from .graph import DEFAULT_LINK_DELAY, Topology
from .internet import (
    PAPER_SIZES,
    InternetShape,
    Tier,
    choose_destination,
    choose_failure_link,
    internet_like,
    internet_like_with_tiers,
    provider_load,
)
from .io import dumps_edge_list, load_edge_list

__all__ = [
    "DEFAULT_LINK_DELAY",
    "PAPER_SIZES",
    "InternetShape",
    "Tier",
    "Topology",
    "b_clique",
    "binary_tree",
    "chain",
    "choose_destination",
    "choose_failure_link",
    "clique",
    "dumps_edge_list",
    "grid",
    "internet_like",
    "internet_like_with_tiers",
    "load_edge_list",
    "named_generator",
    "provider_load",
    "ring",
    "ring_with_core",
    "star",
]
