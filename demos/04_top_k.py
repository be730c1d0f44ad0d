"""List the k best solutions instead of a single optimum.

One bottom-up pass over the compiled circuit keeps the k best models of
each node: And nodes combine their children's lists, Or nodes merge them
after completing each child over the variables it does not mention.  Run
with: python demos/04_top_k.py
"""

from nnfopt import (brute_force, compile_formula, encode_basic, parse_instance,
                    project_solution, top_k, weights_from_profits)

TEXT = "-3 v1 v2 v3\n4 v4 v5\n5 v2 v3 v4 v5 v6\n"
inst = parse_instance(TEXT).instance
circuit = compile_formula(encode_basic(inst))
w = weights_from_profits(inst)

print("five best solutions from the circuit:")
for assignment, value in top_k(circuit, w, 5):
    point = project_solution(assignment, inst)
    bits = "".join(str(point[v]) for v in inst.hypergraph.vertices)
    print(f"  value {str(value):>3}  point {bits}")

print("five best by exhaustive sweep:")
for point, value in brute_force(inst, None, 5):
    bits = "".join(str(point[v]) for v in inst.hypergraph.vertices)
    print(f"  value {str(value):>3}  point {bits}")

# Values always agree; tied points may differ between the two rankings,
# both break ties deterministically.
