"""In-memory spans recorded around calls into escansion.

The benchmark wraps the public functions it calls, and the module globals
that those functions look up, so the spans sit at layer boundaries without
any change to the program. Spans are kept in a list and written out once,
at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans are (name, trace id, parent index, start, end, note)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None, new_trace: bool = False):
        """``fn`` recording one span per call; ``note(result)`` is kept
        with the span, so counts are taken where the work happens. A
        ``new_trace`` span starts a new id, which its children share."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if new_trace:
                self.trace_id += 1
            trace_id = self.trace_id
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, trace_id, parent, start, end,
                                note(result) if note and result is not None else None)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by its traced version for the block.

        ``targets`` holds (module, attr, span name, note or None, new_trace)."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in targets]
        try:
            for module, attr, name, note, new_trace in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr),
                                                note, new_trace))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[4] - span[3]
            entry["self_s"] += own
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, trace_id, parent, start, end, note in self.spans:
                fh.write(json.dumps({"name": name, "id": trace_id,
                                     "parent": parent, "start": start,
                                     "end": end, "note": note}) + "\n")


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least ten samples beyond it; the maximum when that percentile would
    fall below the median."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n - 11 >= n // 2 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def grouped_tail(values, size: int) -> dict:
    """Tails of consecutive groups of ``size`` samples, the rest dropped (one
    group of all when there are fewer), and their median, which one stall
    cannot move."""
    groups = [values[i:i + size]
              for i in range(0, len(values) - size + 1, size)] or [values]
    tails = [tail(group) for group in groups]
    return {"value": median([t[0] for t in tails]),
            "percentile": median([t[1] for t in tails]),
            "samples_per_group": median([t[2] for t in tails]),
            "groups": len(groups)}


def median(values) -> float:
    return statistics.median(values) if values else 0.0
