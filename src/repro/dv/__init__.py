"""Distance-vector baseline (RIP-like), for the §2 comparison.

Demonstrates what path-vector routing improves on: poison reverse stops
2-node loops but not longer ones, and unreachability is discovered by
counting to infinity.
"""

from .messages import INFINITY_METRIC, DvUpdate
from .rip import DvRoute, RipSpeaker

__all__ = ["DvRoute", "DvUpdate", "INFINITY_METRIC", "RipSpeaker"]
