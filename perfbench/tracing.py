"""Call spans around the package's public functions, kept in memory.

The tracer replaces a public function by a wrapper wherever a module of
the package holds a reference to it (the defining module and every module
that imported the name), so calls between modules are caught as well as
the benchmark's own calls.  Each span records its name, its parent span,
the root span of its request, and start and end times.  Self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# A span is a list [name, parent, request, start, end]; parent is -1 for a root.
NAME, PARENT, REQUEST, START, END = range(5)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """fn with a span per call; observe(counts, args, result) records counts."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, stack[0] if stack else index, clock(), None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self, targets: dict[str, Optional[Callable]]) -> None:
        """Wrap each "module.function" of prismcode, given as target -> observer."""
        modules = [m for key, m in sys.modules.items() if key == "prismcode" or key.startswith("prismcode.")]
        for qualname, observe in targets.items():
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"prismcode.{module_name}"], attr)
            wrapper = self.wrap(qualname, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """One JSON array per span: [id, name, parent, request, start, end]."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps([index, *span]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][START], start), min(spans[c][END], end)) for c in children[index]):
            if b > reach:
                covered += b - max(a, reach)
                reach = b
        out.append(end - start - covered)
    return out


def aggregate(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = totals[span[NAME]]
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += own
    return {name: tuple(row) for name, row in totals.items()}
