"""In-memory spans around the benchmark's own calls into each layer.

A span has a name, start, end and the id of the span that caused it; every
span of one traced run shares the workload id. Spans are kept in memory and
written out (Chrome-trace JSON, openable in ui.perfetto.dev) when the run
ends. A layer's self time is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator

from benchmarks.perf.stats import median


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one workload's traced run (single thread)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.epoch = perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, args=args)
        self.spans.append(rec)
        self._stack.append(rec.sid)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.named(name)]

    def median_s(self, name: str) -> float:
        return median(self.durations(name))

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.duration
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_total[s.sid]
        return out

    def chrome_events(self) -> list[dict]:
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"benchmarks.perf[{self.workload}]"}},
        ]
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s.start - self.epoch) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"workload": self.workload, "span": s.sid,
                         "parent": s.parent, **s.args},
            })
        return events

    def write_chrome(self, path: Path) -> int:
        events = self.chrome_events()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return len(events)
