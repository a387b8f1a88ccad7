"""Parametric topology generators.

These produce the regular topologies the paper simulates (Clique, B-Clique)
plus a family of standard shapes (chain, ring, star, tree, grid) used by the
test suite and by ablation benchmarks.  All generators take an optional link
``delay`` so experiments can deviate from the paper's 2 ms default.
"""

from __future__ import annotations

from ..errors import TopologyError
from .graph import DEFAULT_LINK_DELAY, Topology


def clique(n: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """Full mesh of ``n`` nodes (paper Figure 3(a)).

    The destination AS in a Tdown experiment is node 0, matching the
    literature's convention for clique convergence studies.
    """
    if n < 2:
        raise TopologyError(f"clique needs at least 2 nodes, got {n}")
    topo = Topology(f"clique-{n}")
    for u in range(n):
        for v in range(u + 1, n):
            topo.add_edge(u, v, delay)
    return topo


def b_clique(n: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """The paper's B-Clique topology of size ``n`` (Figure 3(b)): 2n nodes.

    Nodes ``0..n-1`` form a chain, nodes ``n..2n-1`` form a clique, node 0
    connects to node ``n`` and node ``n-1`` connects to node ``2n-1``.  It
    models an edge network (node 0) with a direct link to the core and a long
    backup path through the chain.  The Tlong event fails link ``(0, n)``.
    """
    if n < 2:
        raise TopologyError(f"b-clique needs size >= 2, got {n}")
    topo = Topology(f"b-clique-{n}")
    for i in range(n - 1):                     # the chain 0..n-1
        topo.add_edge(i, i + 1, delay)
    for u in range(n, 2 * n):                  # the clique n..2n-1
        for v in range(u + 1, 2 * n):
            topo.add_edge(u, v, delay)
    topo.add_edge(0, n, delay)                 # direct edge-to-core link
    topo.add_edge(n - 1, 2 * n - 1, delay)     # backup chain into the core
    return topo


def chain(n: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """A line of ``n`` nodes: 0-1-2-...-(n-1)."""
    if n < 2:
        raise TopologyError(f"chain needs at least 2 nodes, got {n}")
    topo = Topology(f"chain-{n}")
    for i in range(n - 1):
        topo.add_edge(i, i + 1, delay)
    return topo


def ring(n: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """A cycle of ``n`` nodes; the worst-case shape for §3.2's loop bound."""
    if n < 3:
        raise TopologyError(f"ring needs at least 3 nodes, got {n}")
    topo = chain(n, delay)
    topo.name = f"ring-{n}"
    topo.add_edge(n - 1, 0, delay)
    return topo


def star(n: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """Hub node 0 with ``n - 1`` spokes."""
    if n < 2:
        raise TopologyError(f"star needs at least 2 nodes, got {n}")
    topo = Topology(f"star-{n}")
    for leaf in range(1, n):
        topo.add_edge(0, leaf, delay)
    return topo


def binary_tree(depth: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """Complete binary tree of the given depth (root = node 0)."""
    if depth < 1:
        raise TopologyError(f"tree depth must be >= 1, got {depth}")
    topo = Topology(f"tree-{depth}")
    num_nodes = 2 ** (depth + 1) - 1
    for child in range(1, num_nodes):
        topo.add_edge((child - 1) // 2, child, delay)
    return topo


def grid(rows: int, cols: int, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """A rows × cols mesh; node id is ``r * cols + c``."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"grid needs >= 2 nodes, got {rows}x{cols}")
    topo = Topology(f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topo.add_edge(node, node + 1, delay)
            if r + 1 < rows:
                topo.add_edge(node, node + cols, delay)
    return topo


def ring_with_core(m: int, backup_len: int = 2, delay: float = DEFAULT_LINK_DELAY) -> Topology:
    """The §3.2 analysis shape: an m-ring with primary and backup exits.

    Nodes ``0..m-1`` form the ring (the potential loop c_1..c_m).  Node
    ``m`` is the destination, directly attached to ring node 0 (the
    primary exit).  A backup chain of ``backup_len`` nodes connects ring
    node 1 to the destination, giving the network a longer alternate route.
    Failing link ``(0, m)`` is then a genuine Tlong event that forces the
    ring members through stale paths via each other — the Figure 2
    situation — before they converge onto the backup chain.
    """
    if m < 3:
        raise TopologyError(f"ring size must be >= 3, got {m}")
    if backup_len < 0:
        raise TopologyError(f"backup length must be >= 0, got {backup_len}")
    topo = ring(m, delay)
    topo.name = f"ring{m}-backup{backup_len}"
    destination = m
    topo.add_edge(0, destination, delay)
    prev = 1
    for extra in range(m + 1, m + 1 + backup_len):
        topo.add_edge(prev, extra, delay)
        prev = extra
    topo.add_edge(prev, destination, delay)
    return topo


def named_generator(kind: str):
    """Look up a generator function by its short name.

    Supported names: ``clique``, ``b-clique``, ``chain``, ``ring``, ``star``,
    ``grid`` (takes ``rows, cols``), ``tree`` (takes ``depth``).
    """
    table = {
        "clique": clique,
        "b-clique": b_clique,
        "bclique": b_clique,
        "chain": chain,
        "ring": ring,
        "star": star,
        "grid": grid,
        "tree": binary_tree,
    }
    try:
        return table[kind]
    except KeyError:
        raise TopologyError(
            f"unknown topology kind {kind!r}; expected one of {sorted(table)}"
        ) from None
