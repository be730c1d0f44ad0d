"""Time nnfopt's top-k query against its optimum query as circuits grow.

For each case this compiles the instance once with the auto pipeline,
then runs ``optimize`` and ``top_k`` at k = 1, 10 and 100 on the circuit,
REPEAT times each, and records the minimum wall time of each, the circuit
size (nodes, edges) and a SHA-256 over the answers (every model's bits
in universe order and its value), so two checkouts can be checked to
answer identically.  One ``optimize`` call before the timing leaves the
circuit's structure report cached, as on the CLI's second query.

Cases: gen-labs n 3 for n in --labs, and ``families.intervals(n, 0)``
(beta-acyclic, so the ordered encoding) for n in --intervals.

    PYTHONPATH=<checkout>/src python3 scripts/bench_topk.py --label NAME
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from benchlib import best_of, cases, machine, recorder
from nnfopt import compile_instance, optimize, top_k, weights_from_profits

REPEAT = 3
KS = (1, 10, 100)


def measure(inst) -> dict:
    c = compile_instance(inst)
    w = weights_from_profits(inst)
    optimize(c, w)
    digest = hashlib.sha256()

    def answer(assignment, value):
        return "".join(str(assignment[v]) for v in c.variables), str(value)

    seconds, opt = best_of(REPEAT, optimize, c, w)
    row = {"optimize": round(seconds, 4)}
    digest.update(repr(answer(opt.witness, opt.value)).encode())
    for k in KS:
        seconds, best = best_of(REPEAT, top_k, c, w, k)
        row[f"top_k k={k}"] = round(seconds, 4)
        digest.update(repr([answer(a, value) for a, value in best]).encode())
    return {"nodes": c.node_count, "edges": c.edge_count,
            "answers_sha256": digest.hexdigest(), "seconds": row}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_topk.json")
    ap.add_argument("--labs", type=int, nargs="*", default=[12, 14, 16],
                    metavar="N", help="gen-labs N 3 cases (default: %(default)s)")
    ap.add_argument("--intervals", type=int, nargs="*", default=[250, 500, 1000],
                    metavar="N", help="interval cases (default: %(default)s)")
    args = ap.parse_args(argv)

    add = recorder(args.out, args.label, machine=machine(), repeat=REPEAT)
    for name, inst in cases(labs=args.labs, intervals=args.intervals):
        row = add("cases", name, measure(inst))
        sec = row["seconds"]
        print(f"{name}: {row['nodes']} nodes, optimize {sec['optimize']:.3f} s, "
              + ", ".join(f"k={k} {sec[f'top_k k={k}']:.3f} s" for k in KS), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
