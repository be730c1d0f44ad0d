"""CNF encodings of the multilinear set of a polynomial instance.

Two encodings are provided: a direct one whose incidence structure stays
close to the instance's hypergraph, and an ordered one with telescoped
link clauses that keeps beta-acyclicity when fed a beta-elimination
order.  One loop writes both; the direct encoding is that loop in
declared vertex order without the link tails.  Both have exactly the
satisfying assignments where each edge variable equals the product of
its (polarity-adjusted) vertex bits.  compiler.encode_instance picks the
encoding and its branch order; lift_decomposition reads the clause tags
to carry a tree decomposition of the instance's incidence graph over to
the basic encoding's.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional, Sequence

from .hypergraph import (Graph, Hypergraph, LiteralInstance, TreeDecomposition,
                         incidence_graph, vertex_node)


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
    encoder, or None otherwise.  ``numbered`` holds the same clauses in
    DIMACS numbers (variable i counted from 1, negative when negated),
    literal for literal, computed once here for to_dimacs, the incidence
    graph and the compiler.
    """

    def __init__(self, variables: Sequence[CnfVariable],
                 clauses: Iterable[Iterable[Literal]],
                 tags: Optional[Sequence] = None) -> None:
        self.variables = tuple(variables)
        self._varnum = varnum = {v: i + 1 for i, v in enumerate(self.variables)}
        if len(varnum) != len(self.variables):
            raise ValueError("duplicate variable declaration")
        normalized, numbered = [], []
        for cl in clauses:
            # undeclared variables sort first, so the loop reports them
            lits = sorted(set(cl), key=lambda l: (varnum.get(l[0], 0), l[1]))
            seen = {}
            for var, sign in lits:
                if var not in varnum:
                    raise ValueError(f"undeclared variable {var}")
                if seen.get(var, sign) != sign:
                    raise ValueError(f"clause contains {var} with both signs")
                seen[var] = sign
            normalized.append(tuple(lits))
            numbered.append(tuple(varnum[v] if s else -varnum[v] for v, s in lits))
        self.clauses = tuple(normalized)
        self.numbered = tuple(numbered)
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
        for nums in self.numbered:
            lines.append(" ".join(str(n) for n in nums) + " 0")
        return "\n".join(lines) + "\n"


def _encode(inst: LiteralInstance, order: Sequence, telescoped: bool) -> CnfFormula:
    # Per edge, its vertices along `order`: a link clause -y | l_v for each
    # (with the later vertices' -l_w when telescoped), then y | -l_1 | ... | -l_k.
    h = inst.hypergraph
    rank = {v: i for i, v in enumerate(order)}
    universe = instance_variables(inst)
    x = dict(zip(h.vertices, universe))     # one variable per vertex, shared
    clauses = []
    tags = []
    for i, e in enumerate(h.edges):
        ye = universe[len(x) + i]
        sigma = inst.sigma[i]
        verts = sorted(e, key=rank.__getitem__)
        fails = [(x[v], not sigma[v]) for v in verts]
        for k, v in enumerate(verts):
            link = [(ye, False), (x[v], bool(sigma[v]))]
            if telescoped:
                link += fails[k + 1:]
            clauses.append(link)
            tags.append(("L", i, v))
        clauses.append([(ye, True)] + fails)
        tags.append(("R", i))
    return CnfFormula(universe, clauses, tags)


def encode_basic(inst: LiteralInstance) -> CnfFormula:
    """Direct encoding: per edge, one link clause per vertex and one wide
    clause pushing the edge variable up when every vertex literal holds."""
    return _encode(inst, inst.hypergraph.vertices, telescoped=False)


def encode_ordered(inst: LiteralInstance, order: Sequence) -> CnfFormula:
    """Telescoped encoding along a total vertex order.

    Link clauses carry the tail of the edge beyond their vertex, so the
    formula's hypergraph is beta-acyclic whenever the order is a
    beta-elimination order of the instance's hypergraph.
    """
    if sorted(order, key=repr) != sorted(inst.hypergraph.vertices, key=repr):
        raise ValueError("order must cover exactly the vertices")
    return _encode(inst, order, telescoped=True)


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
    nodes = [vertex_node(var) for var in f.variables]
    return Graph.bipartite(nodes, ((("c", i), [nodes[abs(k) - 1] for k in nums])
                                   for i, nums in enumerate(f.numbered)))


def lift_decomposition(td: TreeDecomposition, h: Hypergraph) -> TreeDecomposition:
    """Lift a decomposition of incidence_graph(h) to one of the incidence
    graph of h's basic encoding, of width at most 2*(1 + input width).

    Clause nodes are named as in formula_incidence_graph, from the clause
    tags of encode_basic.  Every bag is expanded by replacing each edge
    node with the pair (wide clause node, y variable node), then each link
    clause is hung off the first bag holding its edge and its vertex,
    found in one pass over the bags.
    """
    td.validate(incidence_graph(h))
    f = encode_basic(LiteralInstance.plain(h, [0] * len(h.edges)))
    wide = {tag[1]: ("c", k) for k, tag in enumerate(f.tags) if tag[0] == "R"}
    links = [(k, tag) for k, tag in enumerate(f.tags) if tag[0] == "L"]
    xn = lambda v: vertex_node(CnfVariable("x", v))
    yn = lambda i: vertex_node(CnfVariable("y", i))

    bags = {b: frozenset(node for kind, p in td.bags[b]
                         for node in ((xn(p),) if kind == "v" else (wide[p], yn(p))))
            for b in sorted(td.bags)}
    edges_t = [(a, b) for a in sorted(td.tree) for b in sorted(td.tree[a]) if a < b]
    host: dict = {}     # (edge, vertex) -> the lowest bag holding both
    for a in sorted(td.bags):
        members = [p for kind, p in td.bags[a] if kind == "v"]
        for kind, i in td.bags[a]:
            if kind != "v":
                for v in members:
                    host.setdefault((i, v), a)
    for b, (k, (_, i, v)) in enumerate(links, max(bags) + 1):
        bags[b] = frozenset({yn(i), xn(v), ("c", k)})
        edges_t.append((host[(i, v)], b))
    lifted = TreeDecomposition(bags, edges_t)
    bound = 2 * (1 + td.width)
    if lifted.width > bound:
        raise RuntimeError(f"lifted width {lifted.width} exceeds bound {bound}")
    return lifted
