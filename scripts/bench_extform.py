"""Time the stages of nnfopt's extended-formulation path, and count the
full garbage collections each query path sets off.

For each perfbench workload named by --workloads (default: labs-dense,
corpus-mixed and beta-intervals) at seed 1 this compiles each item's
query circuit as the benchmark does, then:

  * runs the extform stages -- normalize_for_extform, then build_system
    with x columns, weight_edge_costs and dual_optimize on that one normal
    form -- REPEAT times per item with the collector on, and records the
    mean over items of each stage's per-item minimum, in milliseconds;
  * runs the benchmark's own item loop (perfbench/worker.py run_item,
    every answer checked) for --probe-seconds (default PROBE_SECONDS),
    and at least once over the items, and through gc.callbacks counts the
    generation-2 collections and their seconds by the query path that was
    running when each one fell due.

    PYTHONHASHSEED=0 PYTHONPATH=<checkout>/src python3 scripts/bench_extform.py --label NAME
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter

from benchlib import machine, recorder  # first: it sets the path
import oracle      # perfbench modules
import pipeline
import spans
import worker
import workloads
from nnfopt import build_system, dual_optimize, normalize_for_extform, weight_edge_costs

SEED = 1
REPEAT = 7
PROBE_SECONDS = 25.0
STAGES = ("normalize", "build_system", "weight_edge_costs", "dual_optimize")


def stage_minima(comp) -> dict:
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        normal = normalize_for_extform(comp.circuit)
        t1 = time.perf_counter()
        build_system(normal, True)
        t2 = time.perf_counter()
        _, cost = weight_edge_costs(normal, comp.weights)
        t3 = time.perf_counter()
        dual_optimize(normal, cost)
        t4 = time.perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            best[stage] = min(best[stage], dt)
    return best


class PathProbe(spans.Untraced):
    """A tracer for worker.run_item that remembers which path is running
    and counts the calls of each."""

    path = None

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    def call(self, name, fn, *args):
        if not name.startswith("path."):
            return fn(*args)
        self.path = name[len("path."):]
        self.calls[self.path] += 1
        try:
            return fn(*args)
        finally:
            self.path = None


def full_collections(items, probe_seconds: float) -> dict:
    """Generation-2 collections per path over probe_seconds of the loop,
    and at least one pass over the items."""
    refs = {item.id: oracle.references(item) for item in items}
    polys = {item.id: (oracle.read_poly(item.solve_text), oracle.read_poly(item.query_text))
             for item in items}
    probe = PathProbe()
    book = worker.Book()
    found: dict = {}
    started = [0.0]

    def on_gc(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            started[0] = time.perf_counter()
            return
        row = found.setdefault(probe.path or "outside paths", [0, 0.0])
        row[0] += 1
        row[1] += time.perf_counter() - started[0]

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        deadline = time.perf_counter() + probe_seconds
        i = 0
        while i < len(items) or time.perf_counter() < deadline:
            item = items[i % len(items)]
            worker.run_item(item, refs[item.id], polys[item.id], probe, book)
            i += 1
    finally:
        gc.callbacks.remove(on_gc)
    if book.failed:
        raise RuntimeError(f"checks failed: {book.messages}")
    return {path: {"calls": probe.calls[path], "collections": found.get(path, [0])[0],
                   "seconds": round(found.get(path, [0, 0.0])[1], 3)}
            for path in sorted(probe.calls.keys() | found.keys())}


def measure(name: str, probe_seconds: float) -> dict:
    items = workloads.make_items(name, SEED)
    circuits = {}       # query text -> compiled circuit, one per distinct text
    for item in items:
        if item.query_text not in circuits:
            circuits[item.query_text] = pipeline.compile_text(spans.Untraced(), item.query_text)
    minima = [stage_minima(comp) for comp in circuits.values()]
    return {
        "query_circuits": len(circuits),
        "stage_min_ms": {stage: round(1000 * sum(m[stage] for m in minima) / len(minima), 3)
                         for stage in STAGES},
        "full_collections": full_collections(items, probe_seconds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_extform.json")
    ap.add_argument("--probe-seconds", type=float, default=PROBE_SECONDS, metavar="S",
                    help="length of each workload's collection probe (default: %(default)s)")
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS), metavar="NAME",
                    help="workloads to measure (default: all of %(choices)s)")
    args = ap.parse_args(argv)

    add = recorder(args.out, args.label, machine=machine(), seed=SEED, repeat=REPEAT,
                   probe_seconds=args.probe_seconds)
    for name in args.workloads:
        row = add("workloads", name, measure(name, args.probe_seconds))
        print(f"{name}: {row['stage_min_ms']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
