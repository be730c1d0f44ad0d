"""CNF encodings of the multilinear set of a polynomial instance.

Two encodings are provided: a direct one whose incidence structure stays
close to the instance's hypergraph, and an ordered one with telescoped
link clauses that keeps beta-acyclicity when fed a beta-elimination
order.  Both have exactly the satisfying assignments where each edge
variable equals the product of its (polarity-adjusted) vertex bits.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional, Sequence

from .hypergraph import Graph, Hypergraph, LiteralInstance, vertex_node


class CnfVariable(namedtuple("CnfVariable", "kind index")):
    """A typed variable: kind 'x' carries a vertex id, kind 'y' an edge position.

    A tuple, so hashing, equality and ordering run in C; it equals the
    plain tuple (kind, index), which therefore must not share a set or
    dict with it.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index):
        if kind not in ("x", "y"):
            raise ValueError("variable kind must be 'x' or 'y'")
        return super().__new__(cls, kind, index)

    def __repr__(self) -> str:
        return f"{self.kind}{self.index}"


Literal = tuple  # (CnfVariable, sign) with sign True for the positive literal


def instance_variables(inst: LiteralInstance) -> tuple[CnfVariable, ...]:
    """Variable universe in export order: vertex variables, then edge variables."""
    h = inst.hypergraph
    return tuple(CnfVariable("x", v) for v in h.vertices) + tuple(
        CnfVariable("y", i) for i in range(len(h.edges)))


class CnfFormula:
    """Clauses over a declared, ordered variable universe.

    Clauses are stored as sorted literal tuples; each clause carries a
    provenance tag ('R', edge) or ('L', edge, vertex) when it came from an
    encoder, or None otherwise.
    """

    def __init__(self, variables: Sequence[CnfVariable],
                 clauses: Iterable[Iterable[Literal]],
                 tags: Optional[Sequence] = None) -> None:
        self.variables = tuple(variables)
        self._varnum = {v: i + 1 for i, v in enumerate(self.variables)}
        if len(self._varnum) != len(self.variables):
            raise ValueError("duplicate variable declaration")
        normalized = []
        for cl in clauses:
            lits = sorted(set(cl), key=lambda l: (self._varnum[l[0]], l[1]))
            seen = {}
            for var, sign in lits:
                if var not in self._varnum:
                    raise ValueError(f"undeclared variable {var}")
                if seen.get(var, sign) != sign:
                    raise ValueError(f"clause contains {var} with both signs")
                seen[var] = sign
            normalized.append(tuple(lits))
        self.clauses = tuple(normalized)
        self.tags = tuple(tags) if tags is not None else (None,) * len(self.clauses)
        if len(self.tags) != len(self.clauses):
            raise ValueError("one tag per clause required")

    def __repr__(self) -> str:
        return f"CnfFormula({len(self.variables)} variables, {len(self.clauses)} clauses)"

    def variable_number(self, var: CnfVariable) -> int:
        return self._varnum[var]

    def satisfies(self, assignment) -> bool:
        for cl in self.clauses:
            if not any(assignment[var] == (1 if sign else 0) for var, sign in cl):
                return False
        return True

    def to_dimacs(self) -> str:
        lines = [f"p cnf {len(self.variables)} {len(self.clauses)}"]
        for cl in self.clauses:
            nums = [self._varnum[v] if s else -self._varnum[v] for v, s in cl]
            nums.sort(key=abs)
            lines.append(" ".join(str(n) for n in nums) + " 0")
        return "\n".join(lines) + "\n"


def _polarity_literal(var: CnfVariable, polarity: int, negate: bool) -> Literal:
    # The polarity-adjusted literal for a vertex variable, with double
    # negation already simplified away.
    sign = bool(polarity) ^ negate
    return (var, sign)


def encode_basic(inst: LiteralInstance) -> CnfFormula:
    """Direct encoding: per edge, one link clause per vertex and one wide
    clause pushing the edge variable up when every vertex literal holds."""
    h = inst.hypergraph
    variables = instance_variables(inst)
    clauses = []
    tags = []
    for i in range(len(h.edges)):
        ye = CnfVariable("y", i)
        verts = h.edge_vertices(i)
        for v in verts:
            clauses.append([(ye, False),
                            _polarity_literal(CnfVariable("x", v), inst.sigma[i][v], False)])
            tags.append(("L", i, v))
        wide = [(ye, True)]
        wide += [_polarity_literal(CnfVariable("x", v), inst.sigma[i][v], True) for v in verts]
        clauses.append(wide)
        tags.append(("R", i))
    return CnfFormula(variables, clauses, tags)


def encode_ordered(inst: LiteralInstance, order: Sequence) -> CnfFormula:
    """Telescoped encoding along a total vertex order.

    Link clauses carry the tail of the edge beyond their vertex, so the
    formula's hypergraph is beta-acyclic whenever the order is a
    beta-elimination order of the instance's hypergraph.
    """
    h = inst.hypergraph
    if sorted(order, key=repr) != sorted(h.vertices, key=repr):
        raise ValueError("order must cover exactly the vertices")
    rank = {v: i for i, v in enumerate(order)}
    variables = instance_variables(inst)
    clauses = []
    tags = []
    for i in range(len(h.edges)):
        ye = CnfVariable("y", i)
        verts = sorted(h.edges[i], key=rank.__getitem__)
        for k, v in enumerate(verts):
            cl = [(ye, False),
                  _polarity_literal(CnfVariable("x", v), inst.sigma[i][v], False)]
            for w in verts[k + 1:]:
                cl.append(_polarity_literal(CnfVariable("x", w), inst.sigma[i][w], True))
            clauses.append(cl)
            tags.append(("L", i, v))
        wide = [(ye, True)]
        wide += [_polarity_literal(CnfVariable("x", v), inst.sigma[i][v], True) for v in verts]
        clauses.append(wide)
        tags.append(("R", i))
    return CnfFormula(variables, clauses, tags)


def formula_hypergraph(f: CnfFormula) -> Hypergraph:
    """Hypergraph whose vertices are the variables and whose edges are the
    clause variable sets; identical variable sets collapse to one edge."""
    seen = set()
    edges = []
    for cl in f.clauses:
        vs = frozenset(var for var, _ in cl)
        if vs and vs not in seen:
            seen.add(vs)
            edges.append(vs)
    return Hypergraph(f.variables, edges)


def formula_incidence_graph(f: CnfFormula) -> Graph:
    """Bipartite graph between variables and clauses (clauses by index)."""
    g = Graph()
    for var in f.variables:
        g.add_node(vertex_node(var))
    for i, cl in enumerate(f.clauses):
        g.add_node(("c", i))
        for var, _ in cl:
            g.add_edge(vertex_node(var), ("c", i))
    return g
