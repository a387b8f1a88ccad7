"""Span recording from outside the program.

The benchmark may not edit ``src/``, so every layer is timed at its public
boundary: :class:`Tracer` replaces a class attribute (or module function)
with a wrapper that records one span per call, and puts the original back
afterwards.  Spans stay in memory as ``(name id, start, end, parent index)``
tuples; a layer's self time is its spans' duration minus the part their
child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, float, float, int]
"""``(name id, start, end, parent span index)``; the root's parent is -1."""


class Tracer:
    """Records nested spans and owns the wrappers that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        """Open a span by hand (for stages the benchmark itself drives)."""
        index = len(self.spans)
        self.spans.append((self.name_id(name), self.clock(), 0.0, self._stack[-1]))
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close the span :meth:`begin` opened; returns its duration."""
        now = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, now, parent)
        return now - start

    def wrapped(self, original: Callable, name: str) -> Callable:
        """``original`` with a span named ``name`` around every call."""
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        wrapper.__wrapped__ = original
        return wrapper

    # -- installing and removing wrappers ---------------------------------

    def install(self, owner: Any, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` (a class method or module function)."""
        self.replace(owner, attribute, self.wrapped(owner.__dict__[attribute], name))

    def replace(self, owner: Any, attribute: str, replacement: Callable) -> None:
        """Set ``owner.attribute`` until :meth:`uninstall`."""
        self._installed.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- the ledger --------------------------------------------------------

    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index, (name_id, start, end, _parent) in enumerate(spans):
            row = table[self.names[name_id]]
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
        return table

    def write(self, path, header: Dict) -> None:
        """``header`` (which names the job the spans belong to) and all spans
        as one JSON document; times are relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": [
                        (name, round(start - origin, 7), round(end - origin, 7), parent)
                        for name, start, end, parent in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )
