"""Time encode and compile of nnfopt's auto pipeline as instances grow.

For each rung this runs ``compiler.encode_instance`` and then
``compile_formula`` with its hint, REPEAT times each, and records the
minimum wall time of each stage, the sizes (n, |E|, circuit nodes and
edges) and a SHA-256 of the circuit, so two runs can be checked to
compile identically.

Rungs: ``families.intervals(n, 0)`` (beta-acyclic, so the ordered
encoding) for n in --intervals, and
``families.shuffled_cycle_of_triples(n, n)`` (not beta-acyclic, so the
basic encoding) for n in --cycles.

    PYTHONPATH=<checkout>/src python3 scripts/bench_scaling.py --label NAME
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from benchlib import best_of, cases, machine, recorder
from nnfopt import CompileConfig, compile_formula, encode_instance

REPEAT = 3


def measure(inst) -> dict:
    encode_s, (formula, hint) = best_of(REPEAT, encode_instance, inst)
    compile_s, c = best_of(REPEAT,
                           lambda: compile_formula(formula, CompileConfig(order_hint=hint)))
    return {
        "n": len(inst.hypergraph.vertices),
        "edges_in": len(inst.hypergraph.edges),
        "nodes": c.node_count,
        "edges": c.edge_count,
        "circuit_sha256": hashlib.sha256(
            repr((c.columns, c.output, c.bit_variables)).encode()).hexdigest(),
        "seconds": {"encode": round(encode_s, 4), "compile": round(compile_s, 4)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_scaling.json")
    ap.add_argument("--intervals", type=int, nargs="*", default=[250, 500, 1000, 2000],
                    metavar="N", help="interval rungs (default: %(default)s)")
    ap.add_argument("--cycles", type=int, nargs="*", default=[300, 600],
                    metavar="N", help="shuffled-cycle rungs (default: %(default)s)")
    args = ap.parse_args(argv)

    add = recorder(args.out, args.label, machine=machine(), repeat=REPEAT)
    for name, inst in cases(intervals=args.intervals, cycles=args.cycles):
        row = add("rungs", name, measure(inst))
        sec = row["seconds"]
        print(f"{name}: {row['nodes']} nodes, encode {sec['encode']:.3f} s, "
              f"compile {sec['compile']:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
