"""In-memory span recorder for the ledger's traced runs.

The ledger records spans from *its own* files, around the public calls
it makes into each ``repro.<layer>`` package; the program under test is
never instrumented.  A span is ``(name, start, end, parent, op)``:
``name`` is ``"<layer>.<call>"`` (the layer is everything before the
first dot), ``parent`` the index of the enclosing span or ``None``, and
``op`` the identifier every span of one operation shares.  Spans stay in
a list and are written out with the report when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Nested spans kept in memory; times are seconds since construction."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        """Record ``name`` around the block; yields the span's index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": time.perf_counter() - self.origin,
                  "end": None, "parent": parent, "op": op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        """Record a span measured elsewhere (``perf_counter`` stamps) --
        the collector thread's submit→result intervals overlap, so they
        cannot use the nesting stack."""
        self.spans.append({"name": name, "start": start - self.origin,
                           "end": end - self.origin, "parent": parent,
                           "op": op})
        return len(self.spans) - 1

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record["end"] - record["start"]

    def children(self, index: int) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s["parent"] == index]

    def layer_seconds(self, root: int) -> Dict[str, float]:
        """Seconds of ``root``'s direct children, summed per layer."""
        out: Dict[str, float] = {}
        for child in self.children(root):
            layer = self.spans[child]["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.duration(child)
        return out

    def coverage(self, root: int) -> float:
        """Share of ``root``'s wall covered by its direct children."""
        wall = self.duration(root)
        if wall <= 0:
            return 0.0
        return sum(self.layer_seconds(root).values()) / wall
