"""Reading and writing topologies as plain-text edge lists.

The format is the one AS-graph galleries conventionally use: one edge per
line, ``u v [delay]``, ``#`` comments allowed.  This lets users plug in their
own AS graphs (e.g. CAIDA relationships files reduced to adjacencies) in
place of the built-in synthetic Internet generator.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO, Union

from ..errors import TopologyError
from .graph import DEFAULT_LINK_DELAY, Topology

PathOrFile = Union[str, Path, TextIO]


def load_edge_list(source: PathOrFile) -> Topology:
    """Parse an edge-list file or file-like object into a :class:`Topology`.

    A file's topology is named after its path, a file-like object's
    ``"loaded"``.

    Each non-comment line is ``u v`` or ``u v delay_seconds``.  Duplicate
    edges keep the last delay seen.  Raises :class:`TopologyError` with the
    offending line number on malformed input.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _parse(handle, name=str(source))
    return _parse(source, name="loaded")


def _parse(handle: TextIO, name: str) -> Topology:
    topo = Topology(name)
    for lineno, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise TopologyError(
                f"{name}:{lineno}: expected 'u v [delay]', got {raw.strip()!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            delay = float(parts[2]) if len(parts) == 3 else DEFAULT_LINK_DELAY
        except ValueError as exc:
            raise TopologyError(f"{name}:{lineno}: {exc}") from None
        topo.add_edge(u, v, delay)
    if topo.num_nodes == 0:
        raise TopologyError(f"{name}: no edges found")
    return topo


def _write(topo: Topology, handle: TextIO) -> None:
    handle.write(f"# topology {topo.name}: {topo.num_nodes} nodes, {topo.num_edges} edges\n")
    for u, v, delay in topo.edges():
        if delay == DEFAULT_LINK_DELAY:
            handle.write(f"{u} {v}\n")
        else:
            handle.write(f"{u} {v} {delay}\n")


def dumps_edge_list(topo: Topology) -> str:
    """Edge-list text for ``topo`` (round-trips through :func:`load_edge_list`)."""
    buffer = io.StringIO()
    _write(topo, buffer)
    return buffer.getvalue()
