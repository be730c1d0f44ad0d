"""Spans around layer calls, self times and peak Python memory.

The untraced run calls layers through Untraced, which adds one Python call
per layer call and records nothing.  The traced run records a span per
call, including the structure checks and smooth-binary-form rebuilds the
library makes inside its queries and transforms: `patched` swaps those
functions for span-recording wrappers in every nnfopt module that imported
them, and restores them afterwards.  Memory is probed in a run of its own,
with tracemalloc running only inside the compile and transform calls.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

# library-internal calls given spans of their own: attribute -> span name
INTERNAL = {"check_structure": "circuit.check_structure",
            "smooth_binary_form": "circuit.smooth_binary_form"}
# internal calls whose results are kept so their sizes can be counted later
KEEP_RESULTS = frozenset({"circuit.smooth_binary_form"})
# layer call -> per-layer memory metric
MEMORY_LAYERS = {"compiler.compile": "compiler.peak_mb",
                 "transforms.cardinality": "transforms.peak_mb",
                 "transforms.knapsack": "transforms.peak_mb"}


class Untraced:
    instance = None

    def call(self, name, fn, *args):
        return fn(*args)

    def take_results(self) -> list:
        return []


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or -1, instance]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = None
        self.results: list[tuple] = []   # (span name, result) for KEEP_RESULTS calls
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def take_results(self) -> list:
        """(span name, result) of the KEEP_RESULTS calls since the last take."""
        out, self.results = self.results, []
        return out

    def self_times(self) -> dict:
        """name -> [self seconds, calls]; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inst in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _inst) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += end - start - child[i]
            acc[1] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")


class MemoryProbe(Untraced):
    """Peak traced allocation, in MiB, of each memory layer's largest call."""

    def __init__(self) -> None:
        self.peak_mb = {metric: 0.0 for metric in MEMORY_LAYERS.values()}

    def call(self, name, fn, *args):
        metric = MEMORY_LAYERS.get(name)
        if metric is None:
            return fn(*args)
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_mb[metric] = max(self.peak_mb[metric], peak / 2 ** 20)


@contextmanager
def patched(tracer: Tracer):
    """Route the library's internal INTERNAL calls through tracer."""
    import nnfopt.circuit
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "nnfopt" or name.startswith("nnfopt."))]
    undo = []
    for attr, span in INTERNAL.items():
        orig = getattr(nnfopt.circuit, attr)

        def wrapper(*args, _orig=orig, _span=span, **kwargs):
            result = tracer.call(_span, lambda: _orig(*args, **kwargs))
            if _span in KEEP_RESULTS:
                tracer.results.append((_span, result))
            return result

        for m in modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapper)
                undo.append((m, attr, orig))
    try:
        yield
    finally:
        for m, attr, orig in undo:
            setattr(m, attr, orig)
