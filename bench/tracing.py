"""In-memory spans around the benchmark's calls into each library layer.

A span is ``[id, parent id, op id, name, start, end]``.  Spans are kept in
a list while the workload runs and written out once at the end.  Tracing
is attached by wrapping library functions, so an untraced run calls the
library functions themselves with no wrapper in between.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

#: Every timed library function, as (module, attribute).  The span name,
#: and the per-layer metric prefix, is ``<module>.<attribute>``.
TIMED = (
    ("core", "Instance"),
    ("core", "validate_solution"),
    ("twodir", "solve_two_dir"),
    ("oracle", "exists_individually_optimal"),
    ("oracle", "enumerate_individually_optimal"),
    ("oracle", "delta"),
    ("oracle", "exists_makespan_at_most"),
    ("oracle", "assignment_minimal_lower_bound"),
    ("oracle", "two_colored_decide"),
    ("reduction", "compile_formula"),
    ("reduction", "makespan_variant"),
    ("reduction", "verify_construction"),
    ("formula", "parse_formula"),
    ("formula", "validate_planar_monotone"),
    ("files", "read_map"),
    ("files", "read_agents"),
    ("files", "write_solution"),
    ("files", "read_solution"),
    ("files", "write_map"),
    ("files", "write_agents"),
    ("files", "write_metadata"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TIMED)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.op, name, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: self time (duration minus children), calls, duration."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start) - child[sid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
        return busy, calls, total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def bind(tracer: Optional[Tracer]) -> SimpleNamespace:
    """The timed library functions by attribute name, traced if asked."""
    lib = {}
    for module, attr in TIMED:
        fn = getattr(importlib.import_module(f"gridmapf.{module}"), attr)
        lib[attr] = fn if tracer is None else tracer.wrap(f"{module}.{attr}", fn)
    return SimpleNamespace(**lib)
