"""Time encode and compile of nnfopt's auto pipeline as instances grow.

For each rung this runs ``compiler.encode_instance`` and then
``compile_formula`` with its hint, REPEAT times each, and records the
minimum wall time of each stage, the sizes (n, |E|, circuit nodes and
edges) and a SHA-256 of the circuit, so two runs can be checked to
compile identically.

Rungs: ``families.intervals(n, 0)`` (beta-acyclic, so the ordered
encoding) for n in --intervals, and the shuffled cycle of triples of
scripts/bench_order.py with seed n (not beta-acyclic, so the basic
encoding) for n in --cycles.

Results are merged into the JSON file under --label, so the numbers of
two checkouts sit side by side:

    PYTHONPATH=<checkout>/src python3 scripts/bench_scaling.py --label NAME
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from nnfopt import CompileConfig, compile_formula, encode_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from bench_order import machine, shuffled_cycle_of_triples  # noqa: E402
from families import intervals  # noqa: E402

REPEAT = 3


def rungs(interval_ns, cycle_ns):
    for n in interval_ns:
        yield f"intervals n={n}", intervals(n, 0)
    for n in cycle_ns:
        yield f"shuffled cycle of triples n={n}", shuffled_cycle_of_triples(n, seed=n)


def measure(inst) -> dict:
    encode_s, compile_s = [], []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        formula, hint = encode_instance(inst)
        t1 = time.perf_counter()
        c = compile_formula(formula, CompileConfig(order_hint=hint))
        t2 = time.perf_counter()
        encode_s.append(t1 - t0)
        compile_s.append(t2 - t1)
    return {
        "n": len(inst.hypergraph.vertices),
        "edges_in": len(inst.hypergraph.edges),
        "nodes": c.node_count,
        "edges": c.edge_count,
        "circuit_sha256": hashlib.sha256(
            repr((c.columns, c.output, c.bit_variables)).encode()).hexdigest(),
        "seconds": {"encode": round(min(encode_s), 4), "compile": round(min(compile_s), 4)},
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

    run = {"machine": machine(), "repeat": REPEAT, "rungs": {}}
    for name, inst in rungs(args.intervals, args.cycles):
        run["rungs"][name] = row = measure(inst)
        sec = row["seconds"]
        print(f"{name}: {row['nodes']} nodes, encode {sec['encode']:.3f} s, "
              f"compile {sec['compile']:.3f} s", file=sys.stderr)

    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("runs", {})[args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
