"""Generate and solve low-autocorrelation binary sequence instances.

The energy of a +-1 sequence is the sum of squared correlations with its
shifts 1..w; expanded over 0/1 variables this is a dense multilinear
polynomial to minimize.  Dense means hard for this pipeline: every vertex
pair occurs as a monomial, so the circuit is the complete decision tree
over the n vertex variables, with about 3 * 2^n nodes.  The compiler pays
a few mask operations per decision node, so n=20 solved in 14.4-15.2 s
on a 2-core host at commit 2813e28.  Run with: python demos/06_labs_benchmark.py
"""

import time

from nnfopt import brute_force, compile_instance, gen_labs, labs_energy, optimize, \
    parse_instance, project_solution, weights_from_profits

N, W = 10, 2
text = gen_labs(N, W)
parsed = parse_instance(text)
print(f"instance n={N} w={W}: {len(parsed.instance.hypergraph.edges)} monomials, "
      f"constant offset {parsed.offset}")

t0 = time.time()
circuit = compile_instance(parsed.instance)
opt = optimize(circuit, weights_from_profits(parsed.instance))
elapsed = time.time() - t0
point = project_solution(opt.witness, parsed.instance)
energy = parsed.report_value(opt.value)
print(f"circuit: {circuit}")
print(f"minimum energy {energy} in {elapsed:.2f}s at "
      + "".join(str(point[v]) for v in sorted(point)))

# cross-checks: the closed-form energy of the witness, and a full sweep
bits = [point[v] for v in sorted(point)]
print("reference energy of the witness:", labs_energy(bits, W))
[(_, best)] = brute_force(parsed.instance, None, 1)
print("exhaustive sweep agrees:", parsed.report_value(best) == energy)
