"""Reference projection: maxplus.project_solution as first written.

A frozen copy of nnfopt's original project_solution, which looks every
vertex and edge variable up by a fresh CnfVariable and recomputes each
edge's product literal by literal.  The library's mask version must
return the same point, or raise the same ValueError at the same first
bad edge, on every assignment; keep this copy as it is.
"""

from nnfopt.cnf import CnfVariable


def project_solution_reference(tau, inst) -> dict:
    h = inst.hypergraph
    bits = {v: tau[CnfVariable("x", v)] for v in h.vertices}
    for i, e in enumerate(h.edges):
        prod = 1
        for v in e:
            bit = bits[v]
            if (bit if inst.sigma[i][v] == 1 else 1 - bit) == 0:
                prod = 0
                break
        if int(tau[CnfVariable("y", i)]) != prod:
            raise ValueError(f"assignment is not in the multilinear set (edge {i})")
    return {v: int(bit) for v, bit in bits.items()}
