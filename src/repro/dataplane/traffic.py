"""Constant-rate traffic sources.

"Every other AS has one host that sends a constant rate IP packet stream to
the destination ... We intentionally set a slow data packet rate of 10
packets per second to avoid congestion" (§4).  :class:`CbrSource` describes
one such stream arithmetically — packet *k* departs at ``start + k / rate`` —
so the epoch evaluator can count packets in an interval in O(1) instead of
enumerating them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from ..prefixes import parse_prefix

DEFAULT_PACKET_RATE = 10.0
"""Packets per second per source (the paper's setting)."""


@dataclass(frozen=True)
class CbrSource:
    """One constant-bit-rate packet stream from ``node``.

    ``start`` anchors the stream's phase: the k-th packet (k = 0, 1, ...)
    departs at ``start + k / rate``, forever.
    """

    node: int
    rate: float = DEFAULT_PACKET_RATE
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"packet rate must be positive, got {self.rate}")

    def first_index_at_or_after(self, time: float) -> int:
        """Smallest k whose departure time is >= ``time``."""
        if time <= self.start:
            return 0
        return math.ceil((time - self.start) * self.rate - 1e-12)

    def departure_time(self, index: int) -> float:
        """Departure time of packet ``index``."""
        if index < 0:
            raise ConfigError(f"packet index must be >= 0, got {index}")
        return self.start + index / self.rate

    def count_in(self, t0: float, t1: float) -> int:
        """Packets departing in ``[t0, t1)``."""
        if t1 <= t0:
            return 0
        first = self.first_index_at_or_after(t0)
        beyond = self.first_index_at_or_after(t1)
        # [t0, t1) is half-open: a packet exactly at t1 belongs to the next
        # interval, which first_index_at_or_after already guarantees.
        return max(0, beyond - first)

    def times_in(self, t0: float, t1: float) -> Iterator[float]:
        """Departure times in ``[t0, t1)``, ascending.

        Boundary semantics are shared with :meth:`count_in` by iterating
        index-based between the same two ``first_index_at_or_after`` values,
        so ``len(list(times_in(a, b))) == count_in(a, b)`` always holds.
        """
        if t1 <= t0:
            return
        first = self.first_index_at_or_after(t0)
        beyond = self.first_index_at_or_after(t1)
        for index in range(first, beyond):
            yield self.departure_time(index)


def sources_for(
    nodes: List[int],
    destination: int,
    rate: float = DEFAULT_PACKET_RATE,
    start: float = 0.0,
    stagger: float = 0.0,
) -> List[CbrSource]:
    """One CBR source per non-destination node (the paper's workload).

    ``stagger`` optionally offsets each source's phase by
    ``node_index * stagger`` seconds, which avoids the artificial lockstep of
    every AS transmitting at identical instants; the default (0) matches the
    paper's plain setup.
    """
    sources = []
    for position, node in enumerate(sorted(nodes)):
        if node == destination:
            continue
        sources.append(CbrSource(node=node, rate=rate, start=start + position * stagger))
    return sources


# ----------------------------------------------------------------------
# Traffic matrices over prefix populations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    """One CBR stream from ``source`` into ``prefix``.

    ``destination`` is what the packets are addressed to: a concrete integer
    address inside a structured prefix (resolved by longest match at every
    hop), or the prefix string itself for opaque legacy prefixes.  ``rate``
    is the flow's seeded weight — the heavier the flow, the more of the
    offered-traffic denominator it carries.
    """

    source: int
    prefix: str
    destination: Union[int, str]
    rate: float = DEFAULT_PACKET_RATE
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"flow rate must be positive, got {self.rate}")

    def as_cbr(self) -> CbrSource:
        """The flow's arrival process (for interval packet counting)."""
        return CbrSource(node=self.source, rate=self.rate, start=self.start)


@dataclass(frozen=True)
class TrafficMatrix:
    """A fixed set of flows — the demand side of the loop-damage metric."""

    flows: Tuple[Flow, ...]

    def __len__(self) -> int:
        return len(self.flows)

    def prefixes(self) -> List[str]:
        """Distinct target prefixes, sorted."""
        return sorted({flow.prefix for flow in self.flows})

    @classmethod
    def seeded(
        cls,
        nodes: Sequence[int],
        prefixes: Sequence[str],
        seed: int,
        rate_range: Tuple[float, float] = (1.0, DEFAULT_PACKET_RATE),
        start: float = 0.0,
        origins: Optional[Mapping[str, Tuple[int, ...]]] = None,
    ) -> "TrafficMatrix":
        """One flow per (source, prefix) with seeded rates and addresses.

        Rates are U[rate_range] per pair; the destination address of every
        flow for one structured prefix is a single seeded representative
        inside that prefix (drawn once per prefix, before the per-pair
        rates), so the evaluator keeps one forwarding tracker and one
        covering chain per prefix, not per flow.  Sources
        listed in ``origins[prefix]`` do not send to their own prefix — the
        paper's "every *other* AS" workload.  Iteration order is the sorted
        (prefix, node) grid, so the matrix is a pure function of the inputs.
        """
        low, high = rate_range
        if not (0 < low <= high):
            raise ConfigError(f"rate range must satisfy 0 < low <= high: {rate_range}")
        rng = random.Random(seed)
        flows: List[Flow] = []
        for prefix in sorted(set(prefixes)):
            spec = parse_prefix(prefix)
            if spec is None:
                destination: Union[int, str] = prefix
            else:
                destination = spec.value + rng.randrange(spec.size)
            skip = frozenset(origins.get(prefix, ()) if origins else ())
            for node in sorted(set(nodes)):
                if node in skip:
                    continue
                rate = rng.uniform(low, high)
                flows.append(
                    Flow(
                        source=node,
                        prefix=prefix,
                        destination=destination,
                        rate=rate,
                        start=start,
                    )
                )
        return cls(flows=tuple(flows))
