"""The data plane: FIB history, traffic, and packet-fate evaluation.

One evaluator and one oracle:

* :class:`TrafficMatrixEvaluator` — post-hoc and change-driven, exact under
  the paper's quasi-static parameters (use for sweeps).  Its N = 1 case,
  :class:`EpochEvaluator`, reports the paper's single-prefix
  :class:`DataPlaneReport`;
* :class:`PacketForwarder` — event-driven per-packet ground truth that the
  evaluator is checked against (use for validation and small scenarios).
"""

from .epochs import DataPlaneReport, EpochEvaluator, LoopSighting
from .fib import FibChange, FibChangeLog, ForwardingGraph, MultiPrefixFib
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
    "TrafficMatrix",
    "TrafficMatrixEvaluator",
    "TrafficReport",
    "WalkResult",
    "canonical_cycle",
    "sources_for",
    "walk",
    "walk_lpm",
]
