"""Constrain solutions by how many variables are set, or by a weighted sum.

The transforms copy each circuit node once per achievable count (or
weighted sum), so a single compiled circuit answers every constrained
query.  The copy runs on the compiled circuit as it is: constants fold on
the way, and each block of literals implied at a decision node stays one
node that shifts the count.  Run with:
python demos/03_cardinality_and_knapsack.py
"""

from nnfopt import (CardinalitySpec, compile_formula, counting_transform,
                    encode_basic, knapsack_transform, model_count, optimize,
                    parse_instance, project_solution, restrict_cardinality,
                    reroot, weights_from_profits)
from nnfopt.cnf import CnfVariable

TEXT = "-3 v1 v2 v3\n4 v4 v5\n5 v2 v3 v4 v5 v6\n"
inst = parse_instance(TEXT).instance
circuit = compile_formula(encode_basic(inst))
w = weights_from_profits(inst)
xvars = tuple(CnfVariable("x", v) for v in inst.hypergraph.vertices)

# One root per possible number of ones; the counts partition 2^6 into
# binomial coefficients because every x-point is feasible.
counted, roots = counting_transform(circuit, xvars)
print("models with exactly i ones:",
      [model_count(reroot(counted, r)) for r in roots])

# Best solution using exactly two ones: only the 4*x4*x5 monomial fits.
spec = CardinalitySpec(xvars, {2})
restricted = restrict_cardinality(circuit, spec)
opt = optimize(restricted, w)
print("optimum with two ones:", opt.value,
      "at", project_solution(opt.witness, inst))

# Admissible counts can be any set, e.g. odd parities.
odd = restrict_cardinality(circuit, CardinalitySpec(xvars, {1, 3, 5}))
print("optimum with an odd number of ones:", optimize(odd, w).value)

# One knapsack constraint with integer coefficients, here 3 <= x1+2*x2+
# 2*x3+x4+x5-x6 <= 4.
coeffs = dict(zip(xvars, (1, 2, 2, 1, 1, -1)))
knap = knapsack_transform(circuit, coeffs, 3, 4)
kopt = optimize(knap, w)
print("optimum under the knapsack:", kopt.value,
      "at", project_solution(kopt.witness, inst))
