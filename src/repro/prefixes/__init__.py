"""Structured IP-style prefixes over a 32-bit address space.

The simulator historically treats a prefix as an opaque string (``"dest"``)
— one destination per scenario, no overlap semantics.  Multi-prefix
workloads need more: aggregation collapses 2^k *specifics* into one
*covering* prefix, and the data plane must then resolve an address against
whichever of the two a router currently holds — longest-prefix-match.

:class:`PrefixSpec` is the structured view: a ``(value, length)`` pair over
a 32-bit space, serialized canonically as ``"{value:08x}/{length}"`` (e.g.
``"0a000000/8"``).  The string form stays the universal :data:`Prefix`
currency throughout the stack — RIBs, messages, FIB logs — so every
existing code path handles structured prefixes unchanged; only the
components that *need* overlap semantics (LPM resolution in
:mod:`repro.dataplane.fib`, aggregation in :mod:`repro.bgp.aggregation`)
parse them.  Legacy opaque names (``"dest"``) simply fail to parse and are
treated as disjoint host routes that never cover or shadow anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError

ADDRESS_BITS = 32
"""Width of the simulated address space."""

ADDRESS_SPACE = 1 << ADDRESS_BITS

_CANONICAL = re.compile(r"^([0-9a-f]{8})/([0-9]|[12][0-9]|3[0-2])$")


@dataclass(frozen=True, slots=True)
class PrefixSpec:
    """A structured prefix: ``length`` leading bits of ``value`` are fixed.

    ``value`` must have its host bits zero (canonical form), so equal
    prefixes always compare equal and serialize identically.
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= ADDRESS_BITS:
            raise ConfigError(f"prefix length must be in [0, 32]: {self.length}")
        if not 0 <= self.value < ADDRESS_SPACE:
            raise ConfigError(f"prefix value out of range: {self.value:#x}")
        if self.value & self.host_mask:
            raise ConfigError(
                f"prefix {self.value:08x}/{self.length} has non-zero host bits"
            )

    # ------------------------------------------------------------------

    @property
    def network_mask(self) -> int:
        """Bitmask of the fixed (network) bits."""
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (ADDRESS_BITS - self.length)

    @property
    def host_mask(self) -> int:
        """Bitmask of the free (host) bits."""
        return ADDRESS_SPACE - 1 - self.network_mask

    @property
    def size(self) -> int:
        """Number of addresses the prefix covers."""
        return 1 << (ADDRESS_BITS - self.length)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this prefix."""
        return (address & self.network_mask) == self.value

    def covers(self, other: "PrefixSpec") -> bool:
        """True when ``other`` is equal to or more specific than this."""
        return other.length >= self.length and self.contains(other.value)

    # ------------------------------------------------------------------
    # Aggregation algebra
    # ------------------------------------------------------------------

    def split(self, extra_bits: int = 1) -> List["PrefixSpec"]:
        """The ``2**extra_bits`` specifics partitioning this prefix."""
        if extra_bits < 1:
            raise ConfigError(f"extra_bits must be >= 1, got {extra_bits}")
        new_length = self.length + extra_bits
        if new_length > ADDRESS_BITS:
            raise ConfigError(
                f"cannot split /{self.length} by {extra_bits} bits past /32"
            )
        step = 1 << (ADDRESS_BITS - new_length)
        return [
            PrefixSpec(self.value + index * step, new_length)
            for index in range(1 << extra_bits)
        ]

    def cover(self, fewer_bits: int = 1) -> "PrefixSpec":
        """The covering prefix ``fewer_bits`` shorter than this one."""
        if fewer_bits < 1:
            raise ConfigError(f"fewer_bits must be >= 1, got {fewer_bits}")
        new_length = self.length - fewer_bits
        if new_length < 0:
            raise ConfigError(f"cannot cover /{self.length} by {fewer_bits} bits")
        shorter = PrefixSpec(0, new_length)
        return PrefixSpec(self.value & shorter.network_mask, new_length)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.value:08x}/{self.length}"

    def __repr__(self) -> str:
        return f"PrefixSpec({self!s})"


def parse_prefix(prefix: str) -> Optional[PrefixSpec]:
    """Parse a canonical prefix string; ``None`` for opaque legacy names.

    Only the canonical serialization produced by ``str(PrefixSpec)`` parses
    — eight lowercase hex digits, a slash, a decimal length — so
    round-tripping is exact and accidental collisions with scenario names
    are impossible.
    """
    match = _CANONICAL.match(prefix)
    if match is None:
        return None
    value = int(match.group(1), 16)
    length = int(match.group(2))
    spec = PrefixSpec(value & PrefixSpec(0, length).network_mask if length else 0, length)
    if spec.value != value:
        return None  # non-canonical: host bits set
    return spec


def longest_match(
    prefixes: List[Tuple[PrefixSpec, object]], address: int
) -> Optional[Tuple[PrefixSpec, object]]:
    """Brute-force longest-prefix-match over ``(spec, payload)`` pairs.

    The reference implementation the trie is property-tested against:
    linear scan, most-specific match wins, ties impossible (equal-length
    matching prefixes containing one address are identical).
    """
    best: Optional[Tuple[PrefixSpec, object]] = None
    for spec, payload in prefixes:
        if spec.contains(address) and (best is None or spec.length > best[0].length):
            best = (spec, payload)
    return best


from .trie import RadixTrie  # noqa: E402  (re-export; trie imports the above)

__all__ = [
    "ADDRESS_BITS",
    "ADDRESS_SPACE",
    "PrefixSpec",
    "RadixTrie",
    "longest_match",
    "parse_prefix",
]
