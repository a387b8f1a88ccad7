"""Ghost Flushing [Bremler-Barr, Afek & Schwarz, INFOCOM 2003].

"Ghost Flushing requires that a node immediately send a withdrawal when the
node changes to a longer path [and] the new path announcement is delayed by
the MRAI timer" (paper §5).  The withdrawal "flushes" the ghost — the stale,
better-looking path the neighbor still holds — at processing/propagation
speed, while the (rate-limited) announcement follows when MRAI expires.

Effects the paper measures: convergence time and looping drop by ≥80% on
cliques and Internet-derived topologies, but on large cliques the flood of
flush withdrawals queues up in nodes' serialized message processing and
delays the very updates that carry new reachability — the benefit shrinks as
node degree grows.  Ghost Flushing also trades loss for loop-freedom: nodes
flushed of their route drop packets instead of forwarding along a stale (but
possibly working) path.
"""

from __future__ import annotations

from typing import Optional

from ..path import AsPath


def should_flush(
    last_path: Optional[AsPath], new_advertised_path: Optional[AsPath]
) -> bool:
    """True when moving to ``new_advertised_path`` warrants an immediate flush.

    Parameters
    ----------
    last_path:
        The path this peer was last told (from the Adj-RIB-Out), or
        ``None`` when it holds nothing from us.
    new_advertised_path:
        The path that *would* be announced now if MRAI were not holding it
        (speaker's AS at the head), or ``None`` when the new state is
        "no route" (that case is an ordinary withdrawal, not a flush).

    The flush fires only when the peer currently holds a *shorter* path than
    the one we will eventually announce: the held announcement cannot arrive
    for up to M seconds, and until it does the peer is operating on ghost
    information strictly better than reality.
    """
    if last_path is None:
        return False  # peer holds nothing; there is no ghost to flush
    if new_advertised_path is None:
        return False  # plain unreachability; normal withdrawal handles it
    return len(new_advertised_path) > len(last_path)
