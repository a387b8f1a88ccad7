"""The BGP path-vector protocol implementation.

Public surface: :class:`BgpSpeaker` (the router), :class:`BgpConfig` (which
protocol variant it speaks), the RIB/route/path value types, and the §5
variant registry (:func:`variant` / :data:`VARIANT_NAMES`).
"""

from .config import DEFAULT_PROCESSING_DELAY, BgpConfig
from .damping import DampingConfig, RouteFlapDamper
from .decision import DecisionProcess
from .aggregation import AggregateBlock, prefix_population
from .messages import (
    Announcement,
    Keepalive,
    Open,
    Prefix,
    UpdateBatch,
    Withdrawal,
    is_update,
)
from .session import SessionManager
from .mrai import (
    DEFAULT_JITTER,
    DEFAULT_MRAI,
    MRAI_MODES,
    MRAI_PER_PEER,
    MRAI_PER_PREFIX,
    MraiManager,
)
from .path import AsPath, intern_path
from .policy import (
    PathRankPolicy,
    RoutingPolicy,
    ShortestPathPolicy,
)
from .relationships import (
    GaoRexfordPolicy,
    Relationship,
    is_valley_free,
    relationships_from_tiers,
)
from .rib import NOTHING_SENT, AdjRibIn, AdjRibOut, LocRib, SentState
from .route import (
    DEFAULT_LOCAL_PREF,
    Route,
    intern_route,
    local_route,
    route_intern_table_size,
)
from .speaker import BgpSpeaker, FibListener
from .variants import VARIANT_NAMES, combine, variant

__all__ = [
    "AdjRibIn",
    "AdjRibOut",
    "AggregateBlock",
    "Announcement",
    "AsPath",
    "BgpConfig",
    "BgpSpeaker",
    "DEFAULT_JITTER",
    "DEFAULT_LOCAL_PREF",
    "DEFAULT_MRAI",
    "DEFAULT_PROCESSING_DELAY",
    "DampingConfig",
    "DecisionProcess",
    "FibListener",
    "GaoRexfordPolicy",
    "Keepalive",
    "LocRib",
    "MRAI_MODES",
    "MRAI_PER_PEER",
    "MRAI_PER_PREFIX",
    "MraiManager",
    "NOTHING_SENT",
    "Open",
    "PathRankPolicy",
    "Prefix",
    "Relationship",
    "Route",
    "RouteFlapDamper",
    "RoutingPolicy",
    "SentState",
    "SessionManager",
    "ShortestPathPolicy",
    "UpdateBatch",
    "VARIANT_NAMES",
    "Withdrawal",
    "combine",
    "is_update",
    "is_valley_free",
    "intern_route",
    "local_route",
    "route_intern_table_size",
    "prefix_population",
    "relationships_from_tiers",
    "variant",
]
