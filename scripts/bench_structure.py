"""Time nnfopt's structure check on the circuits its queries check.

For each perfbench workload named by --workloads (default: all three) at
seed 1 this builds, as the benchmark's paths do, every item's compiled
circuits (the solve instance's and the query instance's), and from the
query circuit its restricted (cardinality), knapsack and extform normal
forms.  It times ``check_structure`` REPEAT times on each circuit, the
cached report cleared before every call, and records per kind of circuit
the number of circuits, their mean node and edge counts and the mean over
circuits of each one's minimum time, in milliseconds.

Then for gen-labs n 3, n in --labs, it records the compiled circuit's
size, the minimum of REPEAT checks in seconds and the tracemalloc peak of
one check in MB.

    PYTHONHASHSEED=0 PYTHONPATH=<checkout>/src python3 scripts/bench_structure.py --label NAME
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from benchlib import best_of, cases, machine, recorder  # first: it sets the path
import pipeline    # perfbench modules
import spans
import workloads
from nnfopt import (CardinalitySpec, check_structure, compile_instance, knapsack_transform,
                    normalize_for_extform, restrict_cardinality)

SEED = 1
REPEAT = 7
KINDS = ("compiled", "restricted", "knapsack", "normal")


def best_check(c) -> float:
    return best_of(REPEAT, check_structure, c,
                   before=lambda: c.__dict__.pop("_structure", None))[0]


def workload_circuits(name: str) -> dict:
    """Kind -> the circuits of that kind the workload's items check."""
    compiled: dict = {}          # instance text -> compiled circuit
    out = {kind: [] for kind in KINDS}

    def compile_text(text):
        if text not in compiled:
            compiled[text] = pipeline.compile_text(spans.Untraced(), text)
            out["compiled"].append(compiled[text].circuit)
        return compiled[text]

    for item in workloads.make_items(name, SEED):
        compile_text(item.solve_text)
        comp = compile_text(item.query_text)
        x = pipeline.x_variables(comp)
        c = comp.circuit
        out["restricted"].append(restrict_cardinality(c, CardinalitySpec(x, item.card_sums)))
        out["knapsack"].append(knapsack_transform(c, dict(zip(x, item.knap_coeffs)),
                                                  *item.knap_bounds))
        out["normal"].append(normalize_for_extform(c))
    return out


def measure_workload(name: str) -> dict:
    row = {}
    for kind, circuits in workload_circuits(name).items():
        k = len(circuits)
        row[kind] = {"circuits": k,
                     "nodes": round(sum(c.node_count for c in circuits) / k, 1),
                     "edges": round(sum(c.edge_count for c in circuits) / k, 1),
                     "check_ms": round(1000 * sum(map(best_check, circuits)) / k, 4)}
    return row


def measure_labs(inst) -> dict:
    c = compile_instance(inst)
    seconds = best_check(c)
    c.__dict__.pop("_structure", None)
    tracemalloc.start()
    try:
        check_structure(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"nodes": c.node_count, "edges": c.edge_count, "check_s": round(seconds, 6),
            "peak_mb": round(peak / 2**20, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_structure.json")
    ap.add_argument("--workloads", nargs="*", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS), metavar="NAME",
                    help="workloads to measure (default: all of %(choices)s)")
    ap.add_argument("--labs", type=int, nargs="*", default=[14, 16],
                    metavar="N", help="gen-labs N 3 cases (default: %(default)s)")
    args = ap.parse_args(argv)

    add = recorder(args.out, args.label, machine=machine(), seed=SEED, repeat=REPEAT)
    for name in args.workloads:
        print(f"{name}: {add('workloads', name, measure_workload(name))}", file=sys.stderr)
    for name, inst in cases(labs=args.labs):
        print(f"{name}: {add('labs', name, measure_labs(inst))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
