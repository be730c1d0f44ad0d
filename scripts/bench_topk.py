"""Time nnfopt's top-k query against its optimum query as circuits grow.

For each case this compiles the instance once with the auto pipeline,
then runs ``optimize`` and ``top_k`` at k = 1, 10 and 100 on the circuit,
REPEAT times each, and records the minimum wall time of each, the circuit
size (nodes, edges) and a SHA-256 over the answers (every model's bits
in universe order and its value), so two checkouts can be checked to
answer identically.  One ``optimize`` call before the timing leaves the
circuit's structure report cached, as on the CLI's second query.  Beside
each ``top_k`` it times projecting the k answers to vertex points with
``project_solution``, as ``nnfopt topk`` prints them
(``project_seconds``), and records a SHA-256 over those points.

Cases: gen-labs n 3 for n in --labs, and ``families.intervals(n, 0)``
(beta-acyclic, so the ordered encoding) for n in --intervals.

    PYTHONPATH=<checkout>/src python3 scripts/bench_topk.py --label NAME
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from benchlib import best_of, cases, machine, recorder
from nnfopt import compile_instance, optimize, project_solution, top_k, weights_from_profits

REPEAT = 3
KS = (1, 10, 100)


def measure(inst) -> dict:
    c = compile_instance(inst)
    w = weights_from_profits(inst)
    optimize(c, w)
    digest = hashlib.sha256()

    def answer(assignment, value):
        return "".join(str(assignment[v]) for v in c.variables), str(value)

    def project(best):
        return [project_solution(a, inst) for a, _ in best]

    seconds, opt = best_of(REPEAT, optimize, c, w)
    row = {"optimize": round(seconds, 4)}
    digest.update(repr(answer(opt.witness, opt.value)).encode())
    projected = {}
    points = hashlib.sha256()
    for k in KS:
        seconds, best = best_of(REPEAT, top_k, c, w, k)
        row[f"top_k k={k}"] = round(seconds, 4)
        digest.update(repr([answer(a, value) for a, value in best]).encode())
        seconds, found = best_of(REPEAT, project, best)
        projected[f"k={k}"] = round(seconds, 6)
        points.update(repr(found).encode())
    return {"nodes": c.node_count, "edges": c.edge_count,
            "answers_sha256": digest.hexdigest(), "points_sha256": points.hexdigest(),
            "seconds": row, "project_seconds": projected}


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
        sec, proj = row["seconds"], row["project_seconds"]
        print(f"{name}: {row['nodes']} nodes, optimize {sec['optimize']:.3f} s, "
              + ", ".join(f"k={k} {sec[f'top_k k={k}']:.3f} s"
                          f" + project {proj[f'k={k}'] * 1e3:.2f} ms" for k in KS),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
