"""Spans and counters recorded around calls into the package's layers.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span (-1 at the root) and ``op`` identifies the operation
the call belongs to.  Spans stay in memory and are written out when the run
ends.  A layer is the part of a span name before the first dot, which is
the name of the package module whose public function was called.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans only when enabled; counters are always kept.

    Disabled, :meth:`call` is a plain call, so the untraced run pays one
    attribute test per layer call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self.counters: dict[str, list[tuple[object, float]]] = defaultdict(list)
        self.op: object = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, self.op)
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name].append((self.op, value))

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start},{end},{parent},{op}\n")
