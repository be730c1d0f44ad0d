"""The benchmark's paths (perfbench/pipeline.py, perfbench/spans.py) run
against the library as it stands.

The benchmark calls public functions by name, unpacks their results and,
in its traced run, swaps library functions for span-recording wrappers by
attribute name.  A library change that breaks one of those contracts
fails here, in tier-1, before it fails the benchmark.  The perfbench
modules are imported read-only.
"""

import sys
from itertools import product
from operator import mul
from pathlib import Path

import pytest

from corpus import WORKED_TEXT
from nnfopt import brute_force, encode_instance, gen_labs, parse_instance

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
# criterion 9's cyclic instance: min-fill ordering runs on it
CYCLIC = "2 v1 v2\n-1 v2 v3\n3 v3 v1\n1 v1 v2 v3\n"
KNAP_COEFFS, KNAP_BOUNDS = (1, 2, 3), (2, 4)


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import pipeline
        import spans
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return pipeline, spans, workloads


def run_paths(pipeline, tr) -> dict:
    comp, solved = pipeline.solve(tr, CYCLIC)
    _restricted, card = pipeline.card(tr, comp, (2,))
    _constrained, knap = pipeline.knapsack(tr, comp, KNAP_COEFFS, KNAP_BOUNDS)
    _normal, _system, dual = pipeline.extended(tr, comp)
    return {"solve": solved.value,
            "topk": [a.value for a in pipeline.topk(tr, comp, 3)],
            "card": card.value, "knapsack": knap.value, "extform": dual}


def test_paths_untraced_and_traced(bench):
    pipeline, spans, _workloads = bench
    inst = parse_instance(CYCLIC).instance
    vertices = inst.hypergraph.vertices
    lo, hi = KNAP_BOUNDS
    knap_best = max(inst.value_at(dict(zip(vertices, bits)))
                    for bits in product((0, 1), repeat=len(vertices))
                    if lo <= sum(map(mul, bits, KNAP_COEFFS)) <= hi)
    tracer = spans.Tracer()
    untraced = run_paths(pipeline, spans.Untraced())
    with spans.patched(tracer):
        traced = run_paths(pipeline, tracer)
    for got in (untraced, traced):
        assert got["extform"] == got["solve"] == brute_force(inst)[0][1]
        assert got["topk"] == [value for _p, value in brute_force(inst, k=3)]
        assert got["card"] == brute_force(inst, (2,))[0][1]
        assert got["knapsack"] == knap_best
    assert untraced == traced
    names = {span[0] for span in tracer.spans}
    assert {"circuit.check_structure", "extform.weight_edge_costs",
            "extform.dual_optimize", "circuit.normalize"} <= names


class CompileArguments:
    """A tracer that records what compile_text hands the compiler, and
    skips the compile itself."""

    def __init__(self):
        self.formula = self.hint = None

    def call(self, name, fn, *args):
        if name == "compiler.compile":
            self.formula, self.hint = args[0], args[1].order_hint
            return None
        return fn(*args)


def test_compile_text_follows_encode_instance(bench):
    # pipeline.compile_text keeps its own copy of the `auto` rules.  That
    # copy still skips min-fill above 4,000 incidence nodes, where
    # encode_instance no longer does, so the two differ there until the
    # benchmark's copy follows; every instance below is under that size.
    pipeline, _spans, workloads = bench
    texts = [WORKED_TEXT, CYCLIC, gen_labs(12, 3),
             workloads.make_items("beta-intervals", 1)[0].solve_text,
             workloads.make_items("labs-dense", 1)[0].solve_text]
    for text in texts:
        seen = CompileArguments()
        pipeline.compile_text(seen, text)
        formula, hint = encode_instance(parse_instance(text).instance)
        assert seen.formula.to_dimacs() == formula.to_dimacs()
        assert seen.formula.tags == formula.tags
        assert seen.hint == hint
