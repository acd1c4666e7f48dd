"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call from the benchmark into a library layer (or one
job, which is the parent of the calls it makes).  Spans are kept in memory
and written out once the run ends, so recording costs no I/O while timing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def layer_name(fn) -> str:
    """'enumerate.count_table' for terraces.enumerate.count_table."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class SpanRecorder:
    """Records nested spans; every span of one pass shares its run id."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's attrs dict for the caller to fill."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, self.run, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp.attrs
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        with self.span(layer_name(fn)):
            return fn(*args, **kwargs)

    def finish(self) -> list[Span]:
        """Fill in self time: duration minus the time child spans cover."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        for sp in self.spans:
            covered = 0.0
            reach = sp.start
            for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            sp.self_s = sp.end - sp.start - covered
        return self.spans


class NoSpans:
    """Tracing off: calls go straight through."""

    def span(self, name: str):
        return nullcontext({})

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def dump(spans: list[Span], path) -> None:
    with open(path, "w") as f:
        json.dump([asdict(sp) for sp in spans], f, indent=1)
        f.write("\n")
