"""The data plane: FIB history, traffic, and packet-fate evaluation.

Two evaluation paths produce the same :class:`DataPlaneReport`:

* :class:`EpochEvaluator` — fast, post-hoc, exact under the paper's
  quasi-static parameters (use for sweeps),
* :class:`PacketForwarder` — event-driven ground truth (use for validation
  and small scenarios).
"""

from .epochs import DataPlaneReport, EpochEvaluator, LoopSighting
from .fib import (
    FibChange,
    FibChangeLog,
    ForwardingGraph,
    MultiPrefixFib,
    PrefixTrie,
)
from .packet import (
    DEFAULT_TTL,
    ForwardingTracker,
    PacketFate,
    WalkResult,
    canonical_cycle,
    walk,
    walk_lpm,
)
from .traffic import (
    DEFAULT_PACKET_RATE,
    CbrSource,
    Flow,
    TrafficMatrix,
    sources_for,
)
from .traffic_eval import TrafficMatrixEvaluator, TrafficReport
from .trajectory import FibLookup, PacketForwarder

__all__ = [
    "CbrSource",
    "DEFAULT_PACKET_RATE",
    "DEFAULT_TTL",
    "DataPlaneReport",
    "EpochEvaluator",
    "FibChange",
    "FibChangeLog",
    "FibLookup",
    "Flow",
    "ForwardingGraph",
    "ForwardingTracker",
    "LoopSighting",
    "MultiPrefixFib",
    "PacketFate",
    "PacketForwarder",
    "PrefixTrie",
    "TrafficMatrix",
    "TrafficMatrixEvaluator",
    "TrafficReport",
    "WalkResult",
    "canonical_cycle",
    "sources_for",
    "walk",
    "walk_lpm",
]
