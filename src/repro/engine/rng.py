"""Seeded random-number streams for reproducible simulations.

Every stochastic element of the simulation (MRAI jitter, message processing
delay, destination choice in Internet topologies...) draws from its own named
stream so that changing how one component consumes randomness does not perturb
any other component.  This mirrors the variance-reduction practice of
substream-per-entity used in serious network simulators.

All streams are derived deterministically from a single root seed, so a run is
fully reproducible from ``(code, topology, root_seed)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.stream("mrai-jitter")
    >>> b = streams.stream("processing-delay")
    >>> a is streams.stream("mrai-jitter")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the named stream, creating it on first use.

        The stream's seed is a stable hash of ``(root_seed, name)`` so the
        same name always yields the same sequence for a given root seed,
        regardless of creation order.
        """
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw ``U[low, high]`` from the named stream."""
        return self.stream(name).uniform(low, high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self._seed} streams={sorted(self._streams)}>"
