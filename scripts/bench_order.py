"""Time the ordering stages of nnfopt's auto pipeline, instance by instance.

For each instance this runs the stages of ``compiler.encode_instance`` on
the basic-encoding path one by one -- beta check, encode, incidence graph,
min-fill, order_from_decomposition -- and records per stage the minimum
and median wall time over REPEAT runs, plus the graph size, the
decomposition width and a SHA-256 of the branch order, so two runs can
be checked to order identically.  The composed hint must equal
encode_instance's own.

Instances: gen-labs n 3 for n = 12, 14, 16, and
``families.shuffled_cycle_of_triples(n, n)`` for n = 300 and 600, or
those that ``--labs`` and ``--cycles`` name.

    PYTHONPATH=<checkout>/src python3 scripts/bench_order.py --label NAME \
        [--labs N ...] [--cycles N ...]
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

from benchlib import cases, machine, recorder
from nnfopt import (LiteralInstance, beta_elimination_order, encode_basic, encode_instance,
                    formula_incidence_graph, minfill_decomposition, order_from_decomposition)

REPEAT = 5


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure(inst: LiteralInstance) -> dict:
    times: dict = {}
    for _ in range(REPEAT):
        beta, dt = timed(beta_elimination_order, inst.hypergraph)
        if beta is not None:
            raise ValueError("instance is beta-acyclic; min-fill would not run")
        times.setdefault("beta_check", []).append(dt)
        formula, dt = timed(encode_basic, inst)
        times.setdefault("encode", []).append(dt)
        g, dt = timed(formula_incidence_graph, formula)
        times.setdefault("incidence_graph", []).append(dt)
        td, dt = timed(minfill_decomposition, g)
        times.setdefault("minfill", []).append(dt)
        hint, dt = timed(order_from_decomposition, td)
        times.setdefault("order_from_decomposition", []).append(dt)
        (_, full_hint), dt = timed(encode_instance, inst)
        times.setdefault("encode_instance", []).append(dt)
        if full_hint != hint:
            raise RuntimeError("stage-by-stage hint differs from encode_instance's")
    return {
        "graph_nodes": g.node_count,
        "graph_edges": g.edge_count,
        "width": td.width,
        "order_sha256": hashlib.sha256(repr(hint).encode()).hexdigest(),
        "seconds": {stage: {"min": round(min(ts), 4),
                            "median": round(statistics.median(ts), 4)}
                    for stage, ts in times.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_order.json")
    ap.add_argument("--labs", type=int, nargs="*", default=[12, 14, 16],
                    metavar="N", help="gen-labs N 3 cases (default: %(default)s)")
    ap.add_argument("--cycles", type=int, nargs="*", default=[300, 600],
                    metavar="N", help="shuffled-cycle cases (default: %(default)s)")
    args = ap.parse_args(argv)

    add = recorder(args.out, args.label, machine=machine(), repeat=REPEAT)
    for name, inst in cases(labs=args.labs, cycles=args.cycles):
        row = add("instances", name, measure(inst))
        sec = row["seconds"]
        print(f"{name}: {row['graph_nodes']} nodes, width {row['width']}, "
              f"min-fill {sec['minfill']['median']:.3f} s, "
              f"encode_instance {sec['encode_instance']['median']:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
