"""The five query paths, as calls into nnfopt's public functions.

Every layer call goes through tracer.call(name, fn, ...), so one copy of
the paths serves the untraced run (a plain call) and the traced run (a
span per call).  Module attributes are looked up at call time, so the
functions the traced run patches are the ones called.

The order/encode choice copies the `auto` mode of the CLI's private
_encode; the parity check in worker.py compares against nnfopt.cli.main
so the copy cannot drift from the product unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from nnfopt import circuit, cnf, compiler, extform, hypergraph, instances, maxplus, \
    transforms

MINFILL_NODE_LIMIT = 4000  # same limit as nnfopt.cli


@dataclass
class Compiled:
    parsed: object
    formula: object
    decomposition: Optional[object]   # the min-fill tree decomposition, when one was built
    circuit: object
    weights: object


@dataclass
class Answer:
    value: object                     # optimum of the stored (maximized) polynomial
    point: Optional[dict]             # projected vertex point


def compile_text(tr, text: str) -> Compiled:
    """parse -> order -> encode -> compile, as `nnfopt solve --encoding auto`."""
    parsed = tr.call("instances.parse", instances.parse_instance, text)
    inst = parsed.instance
    h = inst.hypergraph
    beta = tr.call("hypergraph.order", hypergraph.beta_elimination_order, h)
    td = None
    if beta is not None:
        formula = tr.call("cnf.encode", cnf.encode_ordered, inst, beta)
        hint = tr.call("hypergraph.order", compiler.order_from_beta, h)
    else:
        formula = tr.call("cnf.encode", cnf.encode_basic, inst)
        hint = None
        g = tr.call("hypergraph.order", cnf.formula_incidence_graph, formula)
        if g.node_count <= MINFILL_NODE_LIMIT:
            td = tr.call("hypergraph.order", hypergraph.minfill_decomposition, g)
            hint = tr.call("hypergraph.order", compiler.order_from_decomposition, td)
    c = tr.call("compiler.compile", compiler.compile_formula, formula,
                compiler.CompileConfig(order_hint=hint))
    return Compiled(parsed, formula, td, c, maxplus.weights_from_profits(inst))


def _answer(opt, inst) -> Answer:
    point = maxplus.project_solution(opt.witness, inst) if opt.witness is not None else None
    return Answer(opt.value, point)


def solve(tr, text: str) -> tuple[Compiled, Answer]:
    comp = compile_text(tr, text)
    opt = tr.call("maxplus.optimize", maxplus.optimize, comp.circuit, comp.weights)
    return comp, _answer(opt, comp.parsed.instance)


def topk(tr, comp: Compiled, k: int) -> list:
    best = tr.call("maxplus.top_k", maxplus.top_k, comp.circuit, comp.weights, k)
    inst = comp.parsed.instance
    return [Answer(value, maxplus.project_solution(tau, inst)) for tau, value in best]


def x_variables(comp: Compiled) -> tuple:
    return tuple(cnf.CnfVariable("x", v) for v in comp.parsed.instance.hypergraph.vertices)


def card(tr, comp: Compiled, sums: tuple) -> tuple[object, Answer]:
    spec = transforms.CardinalitySpec(x_variables(comp), sums)
    restricted = tr.call("transforms.cardinality", transforms.restrict_cardinality,
                         comp.circuit, spec)
    opt = tr.call("transforms.card_optimize", maxplus.optimize, restricted, comp.weights)
    return restricted, _answer(opt, comp.parsed.instance)


def knapsack(tr, comp: Compiled, coeffs: tuple, bounds: tuple) -> tuple[object, Answer]:
    table = dict(zip(x_variables(comp), coeffs))
    constrained = tr.call("transforms.knapsack", transforms.knapsack_transform,
                          comp.circuit, table, bounds[0], bounds[1])
    opt = tr.call("transforms.knapsack_optimize", maxplus.optimize, constrained,
                  comp.weights)
    return constrained, _answer(opt, comp.parsed.instance)


def extended(tr, comp: Compiled) -> tuple[object, object, object]:
    """normalize -> flow system with x columns -> edge costs -> integral dual.

    Returns (normalized circuit, linear system, dual optimum)."""
    normal = tr.call("circuit.normalize", circuit.normalize_for_extform, comp.circuit)
    system = tr.call("extform.build_system", extform.build_system, normal, True)
    relayed, cost = tr.call("extform.weight_edge_costs", extform.weight_edge_costs,
                            normal, comp.weights)
    value, _dual = tr.call("extform.dual_optimize", extform.dual_optimize, relayed, cost)
    return normal, system, value
