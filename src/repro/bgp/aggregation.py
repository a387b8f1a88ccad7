"""Prefix aggregation and deaggregation events.

Aggregation is the table-compression trick (DRAGON's core move): an origin
that announces 2^k specifics collapses them into one covering prefix, and
later re-splits.  Control-plane-wise both directions are just originations
and withdrawals; the interesting behavior is *transient*: while the
withdrawal of a specific races its cover's propagation, different routers
hold different mixes of cover and specific, and longest-prefix-match
forwarding (:class:`~repro.dataplane.fib.MultiPrefixFib`) over that mixed
state is where multi-prefix loops and blackholes live.

:func:`prefix_population` builds the seeded workload: ``count`` specifics
grouped into blocks of 2^``block_bits`` under distinct covers, each block
assigned to a (seeded) origin.  :func:`apply_aggregate` /
:func:`apply_deaggregate` drive one block through its transition
make-before-break: the replacement routes are originated before the old ones
are withdrawn, so steady states are always covered and every loop observed
is a genuine propagation transient.  :class:`AggregationCycle` is the Tagg
event: a fault injector (see :mod:`repro.net.failures`) that aggregates every
block at its time and deaggregates ``hold`` seconds later.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import ConfigError
from ..net import EventKind, Network
from ..prefixes import ADDRESS_BITS, PrefixSpec, parse_prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (speaker uses bgp.*)
    from .speaker import BgpSpeaker

SPECIFIC_LENGTH = 24
"""Prefix length of the announced specifics (a /24, the Internet's modal
table entry)."""

BLOCK_BITS = 2
"""Specifics per aggregate block = 2^BLOCK_BITS (4 per cover)."""


@dataclass(frozen=True)
class AggregateBlock:
    """One origin's aggregatable unit: a cover and its announced specifics.

    Plain strings and ints only, so blocks ride inside pickled scenario
    specs to sweep workers unchanged.
    """

    origin: int
    cover: str
    specifics: Tuple[str, ...]

    def __post_init__(self) -> None:
        cover_spec = parse_prefix(self.cover)
        if cover_spec is None:
            raise ConfigError(f"aggregate cover must be structured: {self.cover!r}")
        if not self.specifics:
            raise ConfigError(f"aggregate block for {self.cover!r} has no specifics")
        for specific in self.specifics:
            spec = parse_prefix(specific)
            if spec is None:
                raise ConfigError(f"specific must be structured: {specific!r}")
            if not cover_spec.covers(spec) or spec.length <= cover_spec.length:
                raise ConfigError(
                    f"{specific!r} is not a proper specific of {self.cover!r}"
                )


def prefix_population(
    count: int,
    origins: Sequence[int],
    seed: int,
) -> List[AggregateBlock]:
    """A seeded population of ``count`` /24 specifics in blocks of four.

    Blocks are laid out at consecutive cover-aligned addresses (block ``i``
    owns cover ``i << (32 - cover_length)``), so the population is a pure
    function of its arguments; the seed drives only the origin assignment —
    each block goes to a uniformly drawn member of ``origins``.  The final
    block may be partial when ``count`` is not a multiple of the block size
    (its cover then over-covers, which is what real aggregates do anyway).
    """
    if count < 1:
        raise ConfigError(f"population count must be >= 1, got {count}")
    if not origins:
        raise ConfigError("population needs at least one origin")
    cover_length = SPECIFIC_LENGTH - BLOCK_BITS
    block_size = 1 << BLOCK_BITS
    block_count = (count + block_size - 1) // block_size
    if block_count > (1 << cover_length):
        raise ConfigError(
            f"{count} specifics need {block_count} /{cover_length} covers; "
            f"only {1 << cover_length} exist"
        )
    rng = random.Random(seed)
    ordered_origins = sorted(set(origins))
    blocks: List[AggregateBlock] = []
    remaining = count
    for index in range(block_count):
        cover = PrefixSpec(index << (ADDRESS_BITS - cover_length), cover_length)
        specifics = cover.split(BLOCK_BITS)[: min(block_size, remaining)]
        remaining -= len(specifics)
        origin = ordered_origins[rng.randrange(len(ordered_origins))]
        blocks.append(
            AggregateBlock(
                origin=origin,
                cover=str(cover),
                specifics=tuple(str(s) for s in specifics),
            )
        )
    return blocks


def population_originations(
    blocks: Sequence[AggregateBlock],
) -> List[Tuple[int, str]]:
    """The steady-state (origin, specific) originations of a population."""
    pairs: List[Tuple[int, str]] = []
    for block in blocks:
        pairs.extend((block.origin, specific) for specific in block.specifics)
    return pairs


def apply_aggregate(speaker: "BgpSpeaker", block: AggregateBlock) -> None:
    """Collapse the block at its origin: announce the cover, pull specifics.

    Make-before-break: the cover is originated first so the steady state
    after convergence is fully covered; any looping observed is transient
    mixed-state forwarding, not a configuration hole.
    """
    speaker.update_origins([block.cover], block.specifics)


def apply_deaggregate(speaker: "BgpSpeaker", block: AggregateBlock) -> None:
    """Re-split the block at its origin: announce specifics, pull the cover."""
    speaker.update_origins(block.specifics, [block.cover])


@dataclass(frozen=True)
class AggregationCycle:
    """Tagg: aggregate every block at ``at``, re-split ``hold`` seconds later.

    At ``at`` each block's origin collapses its specifics into the covering
    prefix (:func:`apply_aggregate`); at ``at + hold`` it deaggregates back
    (:func:`apply_deaggregate`).  Both transitions are make-before-break.
    """

    kind: ClassVar[Optional[EventKind]] = EventKind.TAGG
    needs_sessions: ClassVar[bool] = False

    blocks: Tuple[AggregateBlock, ...]
    at: float
    hold: float

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ConfigError("a Tagg scenario needs at least one aggregate block")
        if self.hold <= 0:
            raise ConfigError(
                f"a Tagg scenario needs a positive agg_hold, got {self.hold}"
            )

    def check(self, scenario) -> None:
        originated = set(scenario.originations)
        for block in self.blocks:
            if not scenario.topology.has_node(block.origin):
                raise ConfigError(f"aggregate origin {block.origin} not in topology")
            for specific in block.specifics:
                if (block.origin, specific) not in originated:
                    raise ConfigError(
                        f"block specific ({block.origin}, {specific!r}) is "
                        f"not originated at warm-up"
                    )

    def inject(self, network: Network) -> None:
        def aggregate() -> None:
            for block in self.blocks:
                apply_aggregate(network.node(block.origin), block)

        def deaggregate() -> None:
            for block in self.blocks:
                apply_deaggregate(network.node(block.origin), block)

        network.scheduler.call_at(
            self.at, aggregate, priority=0, name="tagg-aggregate"
        )
        network.scheduler.call_at(
            self.at + self.hold, deaggregate, priority=0, name="tagg-deaggregate"
        )
