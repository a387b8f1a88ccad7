"""Route-change traces and path-exploration analysis.

§6 proposes "examin[ing] route change traces" as the follow-up to the
aggregate looping metrics.  A :class:`RouteChangeLog` collects every
best-path change from every speaker (via the speaker's ``route_listener``
hook); the analysis quantifies **path exploration** — the signature BGP
convergence behavior in which a node serially adopts increasingly long
obsolete paths before settling:

* exploration depth — how many distinct best paths a node held,
* non-shortening fraction — how many consecutive changes kept or grew
  the path length (exactly 1.0 for Tdown exploration),
* per-node exploration sequences for inspection.

These quantities connect the micro behavior (§3's stale-path adoption) to
the macro metrics (convergence time ≈ exploration rounds × MRAI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from ..bgp.path import AsPath
from ..util.stats import mean


class RouteChange(NamedTuple):
    """One best-path change at one node."""

    time: float
    node: int
    prefix: str
    old_path: Optional[AsPath]
    new_path: Optional[AsPath]


class RouteChangeLog:
    """Append-only log of best-path changes across all nodes."""

    def __init__(self) -> None:
        self._changes: List[RouteChange] = []

    def record(
        self,
        time: float,
        node: int,
        prefix: str,
        old_path: Optional[AsPath],
        new_path: Optional[AsPath],
    ) -> None:
        """Speaker ``route_listener`` entry point."""
        self._changes.append(RouteChange(time, node, prefix, old_path, new_path))

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self):
        return iter(self._changes)

    def changes(
        self,
        prefix: Optional[str] = None,
        node: Optional[int] = None,
        since: float = float("-inf"),
    ) -> List[RouteChange]:
        """Filtered view, in time order."""
        return [
            c
            for c in self._changes
            if (prefix is None or c.prefix == prefix)
            and (node is None or c.node == node)
            and c.time >= since
        ]


@dataclass
class ExplorationReport:
    """Path-exploration statistics for one prefix over one window."""

    prefix: str
    per_node_sequences: Dict[int, List[Optional[AsPath]]] = field(
        default_factory=dict
    )

    @classmethod
    def from_log(
        cls, log: RouteChangeLog, prefix: str, since: float = float("-inf")
    ) -> "ExplorationReport":
        """Build per-node best-path sequences from the change log.

        Each node's sequence starts with the ``old_path`` of its first
        in-window change (its route when the window opened), followed by
        every ``new_path`` — so consecutive-pair analyses see the first
        transition too.
        """
        report = cls(prefix=prefix)
        for change in log.changes(prefix=prefix, since=since):
            sequence = report.per_node_sequences.get(change.node)
            if sequence is None:
                sequence = [change.old_path]
                report.per_node_sequences[change.node] = sequence
            sequence.append(change.new_path)
        return report

    # ------------------------------------------------------------------

    def exploration_depth(self, node: int) -> int:
        """Distinct best paths the node *adopted* within the window.

        The seeded first element (the route held when the window opened)
        is not counted — only paths switched to during the window.
        """
        paths = {
            path
            for path in self.per_node_sequences.get(node, [])[1:]
            if path is not None
        }
        return len(paths)

    def mean_depth(self) -> float:
        """Average exploration depth across nodes that changed at all."""
        if not self.per_node_sequences:
            return 0.0
        return mean(
            [self.exploration_depth(n) for n in self.per_node_sequences]
        )

    def non_shortening_fraction(self) -> float:
        """Fraction of path→path transitions that did not shrink the path.

        The sharper Tdown invariant: exploration may sidestep between
        equal-length obsolete paths (tie-break churn) but never moves to a
        strictly shorter one — shorter paths were already tried and
        invalidated.  Expect exactly 1.0 for Tdown convergence.
        """
        kept = total = 0
        for sequence in self.per_node_sequences.values():
            previous: Optional[AsPath] = None
            for path in sequence:
                if previous is not None and path is not None:
                    total += 1
                    if len(path) >= len(previous):
                        kept += 1
                previous = path
        if total == 0:
            return 0.0
        return kept / total

    def longest_path_explored(self) -> int:
        """AS hops of the longest path any node adopted in the window."""
        longest = 0
        for sequence in self.per_node_sequences.values():
            for path in sequence[1:]:
                if path is not None:
                    longest = max(longest, len(path))
        return longest

    def changes_per_node(self) -> Dict[int, int]:
        """Best-path changes per node within the window."""
        return {
            node: len(sequence) - 1
            for node, sequence in self.per_node_sequences.items()
        }
