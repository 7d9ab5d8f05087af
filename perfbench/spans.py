"""In-memory spans and counters for the traced benchmark pass.

A span records one call into an rtpack layer: its layer name, start and end
times, the span that caused it and the operation it belongs to.  Spans stay
in memory while the pass runs; `to_json` writes them out afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # [layer, start, end, parent index or None, operation id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, layer: str, op: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent, op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def layers(self) -> dict[str, tuple[float, int]]:
        """Per layer: self time (span time not covered by child spans) and
        the number of spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            busy, calls = out.get(layer, (0.0, 0))
            out[layer] = (busy + (end - start) - child_time[i], calls + 1)
        return out

    def to_json(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "counts": dict(self.counts),
            "spans": [
                {
                    "layer": layer,
                    "start_s": start - t0,
                    "end_s": end - t0,
                    "parent": parent,
                    "op": op,
                }
                for layer, start, end, parent, op in self.spans
            ],
        }
