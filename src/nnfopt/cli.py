"""Command-line surface: end-to-end pipelines over polynomial files.

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

from .circuit import normalize_for_extform, to_nnf_text
from .cnf import CnfVariable
from .compiler import CompileConfig, compile_formula, compile_instance, \
    encode_instance
from .extform import build_system, decimal_places, to_lp_text
from .hypergraph import LiteralInstance
from .instances import GuardViolation, ParseError, ParsedInstance, brute_force, \
    gen_labs, parse_instance
from .maxplus import NEG_INF, optimize, project_solution, top_k, \
    weights_from_profits
from .transforms import CardinalitySpec, knapsack_transform, restrict_cardinality

def _x_variables(inst: LiteralInstance) -> tuple[CnfVariable, ...]:
    return tuple(CnfVariable("x", v) for v in inst.hypergraph.vertices)


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


def _parse_knapsack(text: str, inst: LiteralInstance) -> tuple[int, int, dict]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError("knapsack spec must look like L:U:c1,c2,...")
    try:
        lower, upper = int(parts[0]), int(parts[1])
        coeffs = [int(tok) for tok in parts[2].split(",")]
    except ValueError as exc:
        raise ParseError(f"bad knapsack spec {text!r}") from exc
    if lower > upper:
        raise ParseError(f"empty knapsack interval {lower}:{upper}")
    verts = inst.hypergraph.vertices
    if len(coeffs) != len(verts):
        raise ParseError(f"knapsack needs {len(verts)} coefficients, got {len(coeffs)}")
    return lower, upper, {CnfVariable("x", v): c for v, c in zip(verts, coeffs)}


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


def _cmd_solve(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    inst = parsed.instance
    sums = _card_sums(args.card_set, parsed)
    knapsack = _parse_knapsack(args.knapsack, inst) if args.knapsack else None
    circuit = compile_instance(inst, args.encoding)
    if sums is not None:
        circuit = restrict_cardinality(circuit, CardinalitySpec(_x_variables(inst), sums))
    if knapsack is not None:
        lower, upper, coeffs = knapsack
        circuit = knapsack_transform(circuit, coeffs, lower, upper)
    opt = optimize(circuit, weights_from_profits(inst))
    point = project_solution(opt.witness, inst) if opt.witness is not None else None
    _print_optimum(parsed, opt.value, point)
    return 0


def _cmd_topk(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    inst = parsed.instance
    sums = _card_sums(args.card_set, parsed)
    circuit = compile_instance(inst, args.encoding)
    if sums is not None:
        circuit = restrict_cardinality(circuit, CardinalitySpec(_x_variables(inst), sums))
    best = top_k(circuit, weights_from_profits(inst), args.k)
    for assignment, value in best:
        point = project_solution(assignment, inst)
        print(f"value {parsed.report_value(value)} point {_point_text(point)}")
    if not best:
        print("infeasible")
    return 0


def _cmd_card(args) -> int:
    args.card_set = args.set
    args.knapsack = None
    return _cmd_solve(args)


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
    circuit = normalize_for_extform(compile_instance(inst, args.encoding))
    system = build_system(circuit, include_x=True)
    objective = {}
    factor = 1
    if args.scale_objective and inst.profit:
        factor = lcm(*(p.denominator for p in inst.profit))
    for i, p in enumerate(inst.profit):
        objective[("x", CnfVariable("y", i))] = p * factor
    comment = (f"objective scaled by {factor}; " if factor != 1 else "") + \
        f"declared sense {parsed.sense}, constant offset {parsed.offset}"
    sys.stdout.write(to_lp_text(system, objective, sense="max", comment=comment))
    return 0


def _cmd_oracle(args) -> int:
    parsed = parse_instance(_read_text(args.file))
    sums = _card_sums(args.card_set, parsed)
    best = brute_force(parsed.instance, sums, k=args.k)
    if not best:
        print("infeasible")
        return 0
    if args.k == 1:
        point, value = best[0]
        _print_optimum(parsed, value, point)
    else:
        for point, value in best:
            print(f"value {parsed.report_value(value)} point {_point_text(point)}")
    return 0


def _cmd_gen_labs(args) -> int:
    sys.stdout.write(gen_labs(args.n, args.w))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_instance_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-",
                   help="polynomial file, or - for stdin (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnfopt",
        description="maximize multilinear binary polynomials via circuit compilation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compile and optimize an instance")
    _add_instance_arg(p)
    p.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")
    p.add_argument("--card-set", metavar="S", help="admissible bit counts, e.g. 0,2,4")
    p.add_argument("--knapsack", metavar="L:U:COEFFS",
                   help="integer knapsack constraint over all vertices")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("topk", help="k best solutions")
    _add_instance_arg(p)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")
    p.add_argument("--card-set", metavar="S")
    p.set_defaults(func=_cmd_topk)

    p = sub.add_parser("card", help="optimize under a cardinality constraint")
    _add_instance_arg(p)
    p.add_argument("--set", required=True, metavar="S", help="admissible bit counts")
    p.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")
    p.set_defaults(func=_cmd_card)

    p = sub.add_parser("compile", help="emit the CNF encoding or compiled circuit")
    _add_instance_arg(p)
    p.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")
    p.add_argument("--emit-cnf", action="store_true")
    p.add_argument("--emit-nnf", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("extform", help="emit the extended LP formulation")
    _add_instance_arg(p)
    p.add_argument("--encoding", choices=("auto", "basic", "ordered"), default="auto")
    p.add_argument("--scale-objective", action="store_true",
                   help="clear fractional profits by a common integer factor")
    p.set_defaults(func=_cmd_extform)

    p = sub.add_parser("oracle", help="brute-force reference answer")
    _add_instance_arg(p)
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
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
