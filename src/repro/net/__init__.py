"""Network substrate: nodes, links, channels, failure injection, tracing.

Models the parts of SSFNET the original study relied on: reliable in-order
delivery (BGP-over-TCP), per-link propagation delay, per-node serialized
message processing, and whole-link failures with immediate endpoint
notification.
"""

from .channel import Channel
from .failures import (
    EventKind,
    LinkFailure,
    LinkFlap,
    LinkRestore,
    NodeCrash,
    OriginWithdrawal,
    SessionReset,
)
from .link import Link
from .network import Network, NodeFactory
from .node import Node, zero_service_time
from .trace import MessageTrace, TraceRecord

__all__ = [
    "Channel",
    "EventKind",
    "Link",
    "LinkFailure",
    "LinkFlap",
    "LinkRestore",
    "MessageTrace",
    "Network",
    "Node",
    "NodeCrash",
    "NodeFactory",
    "OriginWithdrawal",
    "SessionReset",
    "TraceRecord",
    "zero_service_time",
]
