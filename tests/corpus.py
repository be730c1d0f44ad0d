"""Shared oracles, generators and reference circuits for the test suite.

Everything here computes expected values independently of the code paths
under test: satisfiability by truth table, polynomial optima by direct
evaluation loops, beta-acyclicity by exhaustive elimination search.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nnfopt import (CircuitBuilder, CnfFormula, Hypergraph, LiteralInstance, encode_basic,
                    formula_incidence_graph)
from nnfopt.cnf import CnfVariable

WORKED_TEXT = "-3 v1 v2 v3\n4 v4 v5\n5 v2 v3 v4 v5 v6\n"


def worked_example() -> LiteralInstance:
    h = Hypergraph([1, 2, 3, 4, 5, 6],
                   [{1, 2, 3}, {4, 5}, {2, 3, 4, 5, 6}])
    return LiteralInstance.plain(h, [Fraction(-3), Fraction(4), Fraction(5)])


# ---------------------------------------------------------------------------
# brute-force oracles


def all_assignments(variables):
    variables = tuple(variables)
    for bits in itertools.product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def sat_assignments(f: CnfFormula) -> list[dict]:
    """Truth-table satisfying assignments of a CNF formula."""
    return [a for a in all_assignments(f.variables) if f.satisfies(a)]


def multilinear_set(inst: LiteralInstance) -> set[tuple]:
    """The multilinear set as bit tuples over (x..., y...) variable order."""
    h = inst.hypergraph
    out = set()
    for bits in itertools.product((0, 1), repeat=len(h.vertices)):
        point = dict(zip(h.vertices, bits))
        ys = []
        for i, e in enumerate(h.edges):
            prod = 1
            for v in e:
                lit = point[v] if inst.sigma[i][v] == 1 else 1 - point[v]
                prod &= lit
            ys.append(prod)
        out.add(bits + tuple(ys))
    return out


def poly_points_sorted(inst: LiteralInstance, feasible=None) -> list[tuple[tuple, Fraction]]:
    """Every feasible point with its value, best first, lex tie-break.

    feasible, when given, filters points by their bit tuple.
    """
    h = inst.hypergraph
    rows = []
    for bits in itertools.product((0, 1), repeat=len(h.vertices)):
        if feasible is not None and not feasible(bits):
            continue
        point = dict(zip(h.vertices, bits))
        rows.append((bits, inst.value_at(point)))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def exhaustive_beta_acyclic(h: Hypergraph) -> bool:
    """Search over all elimination orders with memoized states.

    A vertex is eliminable when every two edges containing it are
    comparable under inclusion, tested pair by pair.
    """
    seen = set()

    def nest_point(v, edges: tuple) -> bool:
        incident = [e for e in edges if v in e]
        return all(a <= b or b <= a for a, b in itertools.combinations(incident, 2))

    def survive(remaining: frozenset, edges: tuple) -> bool:
        if not remaining:
            return True
        if remaining in seen:
            return False
        seen.add(remaining)
        for v in sorted(remaining):
            if nest_point(v, edges):
                nxt = tuple(e - {v} for e in edges if e - {v})
                if survive(remaining - {v}, nxt):
                    return True
        return False

    return survive(frozenset(h.vertices), tuple(h.edges))


# ---------------------------------------------------------------------------
# random generators (all seeded by the caller)


def random_instance(rng: random.Random, max_v: int = 10, max_e: int = 15,
                    max_deg: int = 5, literals: bool = True) -> LiteralInstance:
    nv = rng.randint(1, max_v)
    ne = rng.randint(1, max_e)
    verts = list(range(1, nv + 1))
    edges, sigmas, profits = [], [], []
    for _ in range(ne):
        size = rng.randint(1, min(max_deg, nv))
        e = rng.sample(verts, size)
        edges.append(frozenset(e))
        sigmas.append({v: rng.randint(0, 1) if literals else 1 for v in e})
        d = rng.randint(1, 4)
        profits.append(Fraction(rng.randint(-9 * d, 9 * d), d))
    return LiteralInstance(Hypergraph(verts, edges), tuple(sigmas), tuple(profits))


def corpus_instance(rng: random.Random) -> LiteralInstance:
    """The acceptance corpus distribution: up to 10 vertices, 15 edges of
    size at most 5, rational profits in [-9, 9], random polarities."""
    nv = rng.randint(1, 10)
    ne = rng.randint(1, 15)
    verts = list(range(1, nv + 1))
    edges, sigmas, profits = [], [], []
    for _ in range(ne):
        e = rng.sample(verts, rng.randint(1, min(5, nv)))
        edges.append(frozenset(e))
        sigmas.append({v: rng.randint(0, 1) for v in e})
        d = rng.randint(1, 4)
        profits.append(Fraction(rng.randint(-9 * d, 9 * d), d))
    return LiteralInstance(Hypergraph(verts, edges), tuple(sigmas), tuple(profits))


def random_hypergraph(rng: random.Random, max_v: int = 8, max_e: int = 8) -> Hypergraph:
    nv = rng.randint(1, max_v)
    verts = list(range(1, nv + 1))
    edges = []
    for _ in range(rng.randint(0, max_e)):
        size = rng.randint(1, nv)
        edges.append(frozenset(rng.sample(verts, size)))
    return Hypergraph(verts, edges)


def basic_incidence_graph(h: Hypergraph):
    """Incidence graph of the basic encoding of h, as the encoder writes it."""
    return formula_incidence_graph(encode_basic(LiteralInstance.plain(h, [0] * len(h.edges))))


def random_beta_acyclic_instance(rng: random.Random, max_v: int = 8,
                                 max_e: int = 8) -> LiteralInstance:
    """Rejection-sample hypergraphs until one is beta-acyclic."""
    from nnfopt import is_beta_acyclic
    while True:
        h = random_hypergraph(rng, max_v, max_e)
        if h.edges and is_beta_acyclic(h):
            sigmas = tuple({v: rng.randint(0, 1) for v in e} for e in h.edges)
            profits = tuple(Fraction(rng.randint(-9, 9)) for _ in h.edges)
            return LiteralInstance(h, sigmas, profits)


def random_cycle_hypergraph(rng: random.Random, max_edges: int = 8) -> Hypergraph:
    """Edges pairwise intersecting exactly along a cycle, shared vertices
    only between consecutive edges, no vertex in three edges."""
    m = rng.randint(3, max_edges)
    nxt = itertools.count(1)
    shared = [[next(nxt) for _ in range(rng.randint(1, 2))] for _ in range(m)]
    edges = []
    for i in range(m):
        private = [next(nxt) for _ in range(rng.randint(0, 3))]
        edges.append(frozenset(shared[i - 1] + shared[i % m] + private))
    verts = sorted({v for e in edges for v in e})
    return Hypergraph(verts, edges)


def random_formula(rng: random.Random, max_vars: int = 6,
                   max_clauses: int = 10) -> CnfFormula:
    nv = rng.randint(1, max_vars)
    variables = [CnfVariable("x", i) for i in range(1, nv + 1)]
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, min(3, nv))
        vs = rng.sample(variables, size)
        clauses.append([(v, rng.random() < 0.5) for v in vs])
    return CnfFormula(variables, clauses)


# ---------------------------------------------------------------------------
# reference circuits


def variable_sets(c) -> list:
    """The variables each node mentions, through record_kids."""
    kinds, _, pos, neg = c.columns
    sets: list = []
    for kind, ks, a, b in zip(kinds, c.record_kids, pos, neg):
        if kind == "L":
            sets.append(frozenset((c.bit_variables[(a | b).bit_length() - 1],)))
        else:
            sets.append(frozenset().union(*(sets[ch] for ch in ks)))
    return sets


def reachable(c) -> set:
    """Ids of the nodes the output reaches through record_kids."""
    seen, stack = {c.output}, [c.output]
    while stack:
        for ch in c.record_kids[stack.pop()]:
            if ch not in seen:
                seen.add(ch)
                stack.append(ch)
    return seen


FIG_DDNNF_ROWS = [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def fig_ddnnf():
    """A smooth decision-DNNF over (x, y, z) computing exactly the five
    rows of FIG_DDNNF_ROWS."""
    b = CircuitBuilder(("x", "y", "z"))
    nx, px = b.literal("x", False), b.literal("x", True)
    ny, py = b.literal("y", False), b.literal("y", True)
    nz, pz = b.literal("z", False), b.literal("z", True)
    gz = b.add_or((pz, nz), "z")
    left = b.add_and((nx, py, gz))
    sub = b.add_or((b.add_and((py, gz)), b.add_and((ny, nz))), "y")
    right = b.add_and((px, sub))
    out = b.add_or((left, right), "x")
    return b.finish(out)


def random_decision_dnnf(rng, universe):
    """A random decision-DNNF, in general not smooth: Or children and
    And parts mention random subsets of the variables left to them, so
    variables go free below Or nodes and at the output."""
    b = CircuitBuilder(universe)

    def build(avail, depth):
        roll = rng.random()
        if not avail or depth == 0 or roll < 0.15:
            leaf = rng.random()
            if not avail or leaf < 0.17:
                return b.true() if leaf < 0.15 else b.false()
            return b.literal(rng.choice(avail), rng.random() < 0.5)
        if roll < 0.45:
            rest = list(avail)
            rng.shuffle(rest)
            cut = rng.randint(0, len(rest))
            kids = [build(rest[:cut], depth - 1), build(rest[cut:], depth - 1)]
            return b.add_and(kids)
        d = rng.choice(avail)
        rest = [v for v in avail if v != d]
        branches = []
        for sign in (True, False):
            sub = [v for v in rest if rng.random() < 0.7]
            branches.append(b.add_and((b.literal(d, sign), build(sub, depth - 1))))
        rng.shuffle(branches)
        return b.add_or(branches, d)

    used = [v for v in universe if rng.random() < 0.8]
    return b.finish(build(used, 4))


def circuit_corpus(rng: random.Random, count: int = 8):
    """Mixed bag of small circuits: figure circuit plus compiled random
    formulas and encodings."""
    from nnfopt import compile_formula, encode_basic, encode_ordered
    from nnfopt.hypergraph import beta_elimination_order

    out = [fig_ddnnf()]
    out.append(compile_formula(encode_basic(worked_example())))
    for _ in range(count):
        if rng.random() < 0.5:
            f = random_formula(rng)
        else:
            inst = random_instance(rng, max_v=4, max_e=4, max_deg=3)
            order = beta_elimination_order(inst.hypergraph)
            f = encode_ordered(inst, order) if order is not None else encode_basic(inst)
        out.append(compile_formula(f))
    return out
