"""Command-line surface: end-to-end pipelines over polynomial files.

solve, topk, card (solve with --card-set spelled --set) and extform
build their circuit in one step, _circuit, under --card-set (else the
file's #card) and --knapsack; a command without one of these flags
leaves it unset.  compile emits the unconstrained encoding.

Exit codes: 0 on success, 2 on parse errors and bad flag values, which
are checked before compiling (argparse uses the same), 3 when a size
guard refuses the run.  All output is deterministic byte for
byte given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import logging
import sys
from math import lcm
from typing import Optional

from .circuit import NnfCircuit, normalize_for_extform, to_nnf_text
from .cnf import instance_layout
from .compiler import CompileConfig, compile_formula, compile_instance, \
    encode_instance
from .extform import build_system, decimal_places, to_lp_text
from .hypergraph import LiteralInstance
from .instances import CardinalitySpec, GuardViolation, ParseError, ParsedInstance, \
    brute_force, gen_labs, parse_instance
from .maxplus import NEG_INF, optimize, project_solution, top_k, \
    weights_from_profits
from .transforms import knapsack_transform, restrict_cardinality


def _card_sums(text: Optional[str], parsed: ParsedInstance) -> Optional[frozenset]:
    """The sums of --card-set/--set, else the file's #card.  Like #card,
    each sum must lie in 0..#vertices."""
    if text is None:
        return parsed.card_sums
    try:
        sums = frozenset(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sum set {text!r}") from exc
    n = len(parsed.instance.hypergraph.vertices)
    bad = sorted(s for s in sums if not 0 <= s <= n)
    if bad:
        raise ParseError(f"sum set {text!r} has sums outside 0..{n}: {bad}")
    return sums


def _parse_knapsack(text: str, inst: LiteralInstance) -> tuple[dict, int, int]:
    """(coeffs, lower, upper) of L:U:c1,c2,..., in knapsack_transform's
    argument order; an empty list gives no coefficients."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError("knapsack spec must look like L:U:c1,c2,...")
    try:
        lower, upper = int(parts[0]), int(parts[1])
        coeffs = [int(tok) for tok in parts[2].split(",")] if parts[2] else []
    except ValueError as exc:
        raise ParseError(f"bad knapsack spec {text!r}") from exc
    if lower > upper:
        raise ParseError(f"empty knapsack interval {lower}:{upper}")
    nv = len(inst.hypergraph.vertices)
    if len(coeffs) != nv:
        raise ParseError(f"knapsack needs {nv} coefficients, got {len(coeffs)}")
    return dict(zip(instance_layout(inst).xs, coeffs)), lower, upper


def _circuit(args, parsed: ParsedInstance) -> NnfCircuit:
    """The compiled circuit restricted to the sum set and the knapsack;
    both flag values are checked before compiling."""
    inst = parsed.instance
    sums = _card_sums(args.card_set, parsed)
    knapsack = None if args.knapsack is None else _parse_knapsack(args.knapsack, inst)
    circuit = compile_instance(inst, args.encoding)
    if sums is not None:
        circuit = restrict_cardinality(circuit, CardinalitySpec(instance_layout(inst).xs, sums))
    if knapsack is not None:
        circuit = knapsack_transform(circuit, *knapsack)
    return circuit


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _point_text(point: dict) -> str:
    return " ".join(f"v{v}={point[v]}" for v in sorted(point))


def _print_optimum(parsed: ParsedInstance, value, point: Optional[dict]) -> None:
    if value == NEG_INF or point is None:
        print("infeasible")
        return
    print(f"optimum {parsed.report_value(value)}")
    print(f"point {_point_text(point)}")


def _print_ranked(parsed: ParsedInstance, ranked: list) -> None:
    for point, value in ranked:
        print(f"value {parsed.report_value(value)} point {_point_text(point)}")
    if not ranked:
        print("infeasible")


def _cmd_solve(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    inst = parsed.instance
    opt = optimize(_circuit(args, parsed), weights_from_profits(inst))
    point = project_solution(opt.witness, inst) if opt.witness is not None else None
    _print_optimum(parsed, opt.value, point)
    return 0


def _cmd_topk(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    inst = parsed.instance
    best = top_k(_circuit(args, parsed), weights_from_profits(inst), args.k)
    _print_ranked(parsed, [(project_solution(a, inst), value) for a, value in best])
    return 0


def _cmd_compile(args) -> int:
    if not (args.emit_cnf or args.emit_nnf):
        raise ParseError("nothing to emit: pass --emit-cnf and/or --emit-nnf")
    parsed = parse_instance(_read_text(args.file))
    formula, hint = encode_instance(parsed.instance, args.encoding)
    if args.emit_cnf:
        sys.stdout.write(formula.to_dimacs())
    if args.emit_nnf:
        circuit = compile_formula(formula, CompileConfig(order_hint=hint))
        sys.stdout.write(to_nnf_text(circuit))
    return 0


def _cmd_extform(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    inst = parsed.instance
    if not args.scale_objective:
        for p in inst.profit:
            if decimal_places(p) is None:
                raise ParseError(f"profit {p} has no exact decimal form; "
                                 "pass --scale-objective to clear denominators")
    system = build_system(normalize_for_extform(_circuit(args, parsed)), include_x=True)
    factor = 1
    if args.scale_objective and inst.profit:
        factor = lcm(*(p.denominator for p in inst.profit))
    objective = {("x", y): p * factor for y, p in zip(instance_layout(inst).ys, inst.profit)}
    comment = (f"objective scaled by {factor}; " if factor != 1 else "") + \
        f"declared sense {parsed.sense}, constant offset {parsed.offset}"
    sys.stdout.write(to_lp_text(system, objective, sense="max", comment=comment))
    return 0


def _cmd_oracle(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    sums = _card_sums(args.card_set, parsed)
    best = brute_force(parsed.instance, sums, k=args.k)
    if args.k == 1 and best:
        point, value = best[0]
        _print_optimum(parsed, value, point)
    else:
        _print_ranked(parsed, best)
    return 0


def _cmd_gen_labs(args) -> int:
    sys.stdout.write(gen_labs(args.n, args.w))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnfopt",
        description="maximize multilinear binary polynomials via circuit compilation")
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("file", nargs="?", default="-",
                        help="polynomial file, or - for stdin (default)")
    encoded = argparse.ArgumentParser(add_help=False, parents=[source])
    encoded.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")

    def add_knapsack(p):
        p.add_argument("--knapsack", metavar="L:U:COEFFS",
                       help="integer knapsack constraint over all vertices; pass a "
                            "negative lower bound as --knapsack=-3:...")

    p = sub.add_parser("solve", parents=[encoded], help="compile and optimize an instance")
    p.add_argument("--card-set", metavar="S", help="admissible bit counts, e.g. 0,2,4")
    add_knapsack(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("topk", parents=[encoded], help="k best solutions")
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--card-set", metavar="S")
    add_knapsack(p)
    p.set_defaults(func=_cmd_topk)

    p = sub.add_parser("card", parents=[encoded],
                       help="optimize under a cardinality constraint")
    p.add_argument("--set", dest="card_set", required=True, metavar="S",
                   help="admissible bit counts")
    p.set_defaults(func=_cmd_solve, knapsack=None)

    p = sub.add_parser("compile", parents=[encoded],
                       help="emit the CNF encoding or compiled circuit")
    p.add_argument("--emit-cnf", action="store_true")
    p.add_argument("--emit-nnf", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("extform", parents=[encoded], help="emit the extended LP formulation")
    p.add_argument("--scale-objective", action="store_true",
                   help="clear fractional profits by a common integer factor")
    p.set_defaults(func=_cmd_extform, card_set=None, knapsack=None)

    p = sub.add_parser("oracle", parents=[source], help="brute-force reference answer")
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--card-set", metavar="S")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-labs", help="emit a low-autocorrelation instance")
    p.add_argument("n", type=int)
    p.add_argument("w", type=int)
    p.set_defaults(func=_cmd_gen_labs)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, GuardViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardViolation) else 2


if __name__ == "__main__":
    sys.exit(main())
