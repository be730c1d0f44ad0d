"""Extract a linear program whose integral points are the circuit's models.

One flow unknown per circuit edge: the output absorbs one unit, Or nodes
conserve flow, And in-edges copy the node's outflow.  The system is
totally dual integral; a single forward pass builds an integral optimal
dual for integer edge costs.  Run with:
python demos/05_extended_formulation.py
"""

from nnfopt import (build_system, compile_formula, dual_optimize, encode_basic,
                    enumerate_certificates, certificate_point, normalize_for_extform,
                    optimize, parse_instance, to_lp_text, tu_counterexample_check,
                    weight_edge_costs, weights_from_profits)
from nnfopt.cnf import CnfVariable

TEXT = "-3 v1 v2 v3\n4 v4 v5\n5 v2 v3 v4 v5 v6\n"
inst = parse_instance(TEXT).instance
base = compile_formula(encode_basic(inst))
norm = normalize_for_extform(base)

system = build_system(norm, include_x=True)
print("system:", system)

# Certificates are the tree-shaped ways of accepting a model; their
# indicator vectors are exactly the integral points of the system.
certs = enumerate_certificates(norm, cap=1000)
print("certificates:", len(certs), "= models of the multilinear set")
y, x = certificate_point(certs[0], norm)
print("first certificate satisfies every row:", system.check_point({**y, **x}))

# Put each variable's weight on every out-edge of its literal: a
# certificate crosses at most one of them, so maximizing edge costs over
# certificates reproduces the circuit optimum, and the constructive dual
# certifies it on the same normal form.
w = weights_from_profits(inst)
_, cost = weight_edge_costs(norm, w)
dual_value, _ = dual_optimize(norm, cost)
print("dual value:", dual_value, "== max-plus optimum:",
      optimize(base, w).value)

# The constraint matrix is not totally unimodular (a 6x6 submatrix of a
# small witness circuit has determinant 2), which is why integrality
# needs the dual-integrality argument rather than unimodularity.
print("witness submatrix determinant:", tu_counterexample_check())

objective = {("x", CnfVariable("y", i)): p for i, p in enumerate(inst.profit)}
print("\nLP file (head):")
print("\n".join(to_lp_text(system, objective).splitlines()[:6]))
