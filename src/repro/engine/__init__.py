"""Discrete-event simulation engine.

This subpackage is the in-Python replacement for the SSFNET event kernel used
by the original study: a deterministic event heap (:class:`Scheduler`),
restartable timers (:class:`Timer`), a single-server router-CPU model
(:class:`SerialProcessor`), named reproducible RNG streams
(:class:`RandomStreams`), and the one seam through which a run is watched
(:class:`Observer`).
"""

from .event import Event, EventPriority
from .observer import Observer
from .process import SerialProcessor
from .rng import RandomStreams
from .scheduler import Scheduler
from .timers import Timer

__all__ = [
    "Event",
    "EventPriority",
    "Observer",
    "RandomStreams",
    "Scheduler",
    "SerialProcessor",
    "Timer",
]
