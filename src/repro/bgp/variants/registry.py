"""Named protocol variants: the five configurations compared in §5.

The registry maps the names used throughout the experiment harness, the
benchmarks, and EXPERIMENTS.md onto :class:`~repro.bgp.config.BgpConfig`
factories, so a figure driver can ask for ``variant("ghost-flushing",
mrai=30)`` without touching config internals.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...errors import ConfigError
from ..config import BgpConfig
from ..mrai import DEFAULT_MRAI

_FACTORIES: Dict[str, Callable[[float], BgpConfig]] = {
    "standard": lambda mrai: BgpConfig(mrai=mrai),
    "ssld": lambda mrai: BgpConfig(mrai=mrai, ssld=True),
    "wrate": lambda mrai: BgpConfig(mrai=mrai, wrate=True),
    "assertion": lambda mrai: BgpConfig(mrai=mrai, assertion=True),
    "ghost-flushing": lambda mrai: BgpConfig(mrai=mrai, ghost_flushing=True),
}

#: Presentation order used by every comparison figure.
VARIANT_NAMES: List[str] = [
    "standard",
    "ssld",
    "wrate",
    "assertion",
    "ghost-flushing",
]


def variant(name: str, mrai: float = DEFAULT_MRAI) -> BgpConfig:
    """Build the named protocol variant's configuration.

    Raises :class:`~repro.errors.ConfigError` for unknown names, listing the
    valid ones.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown BGP variant {name!r}; expected one of {VARIANT_NAMES}"
        ) from None
    return factory(mrai)


def combine(names, mrai: float = DEFAULT_MRAI) -> BgpConfig:
    """A configuration with several enhancements enabled together.

    The paper evaluates each mechanism in isolation; they are not mutually
    exclusive, and their speaker hook points are independent (SSLD at
    export, WRATE at withdrawal send, Assertion at receipt, Ghost Flushing
    at MRAI hold), so any subset composes.  ``names`` may include
    ``"standard"`` as a no-op.  Duplicate names are tolerated.

    >>> combine(["ssld", "ghost-flushing"]).variant_name
    'ssld+ghost-flushing'
    """
    flags = dict(ssld=False, wrate=False, assertion=False, ghost_flushing=False)
    for name in names:
        if name == "standard":
            continue
        if name not in _FACTORIES:
            raise ConfigError(
                f"unknown BGP variant {name!r}; expected one of {VARIANT_NAMES}"
            )
        flags[name.replace("-", "_")] = True
    return BgpConfig(mrai=mrai, **flags)
