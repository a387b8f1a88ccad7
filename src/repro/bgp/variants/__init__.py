"""The four BGP convergence enhancements studied in §5, plus a registry.

Each module documents one mechanism and implements its decision logic as a
pure function the speaker calls at the appropriate hook point:

* :mod:`.ssld` — Sender-Side Loop Detection,
* :mod:`.wrate` — Withdrawal Rate Limiting,
* :mod:`.assertion` — the Assertion approach,
* :mod:`.ghost_flushing` — Ghost Flushing.
"""

from .assertion import stale_entries
from .ghost_flushing import should_flush
from .registry import VARIANT_NAMES, combine, variant
from .ssld import converts_to_withdrawal
from .wrate import withdrawals_rate_limited

__all__ = [
    "VARIANT_NAMES",
    "combine",
    "converts_to_withdrawal",
    "should_flush",
    "stale_entries",
    "variant",
    "withdrawals_rate_limited",
]
