import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (corpus_instance, multilinear_set, worked_example,
                    random_beta_acyclic_instance, random_formula, random_instance,
                    sat_assignments)
from nnfopt import (Graph, Hypergraph, LiteralInstance, beta_elimination_order,
                    encode_basic, encode_ordered, formula_hypergraph,
                    formula_incidence_graph, gen_labs, is_beta_acyclic, parse_instance)
from nnfopt.cnf import CnfFormula, CnfVariable
from nnfopt.hypergraph import vertex_node


def x(v):
    return CnfVariable("x", v)


def y(i):
    return CnfVariable("y", i)


def clause_set(formula):
    return {frozenset(cl) for cl in formula.clauses}


def lit(var, sign):
    return (var, sign)


def corpus_formulas():
    """200 corpus formulas (basic encodings of acceptance-corpus instances
    and random formulas), then the basic encodings of gen-labs 8..12 3."""
    rng = random.Random(2024)
    for _ in range(100):
        yield encode_basic(corpus_instance(rng))
        yield random_formula(rng)
    for n in range(8, 13):
        yield encode_basic(parse_instance(gen_labs(n, 3)).instance)


WORKED_BASIC = [
    {lit(y(0), False), lit(x(1), True)},
    {lit(y(0), False), lit(x(2), True)},
    {lit(y(0), False), lit(x(3), True)},
    {lit(x(1), False), lit(x(2), False), lit(x(3), False), lit(y(0), True)},
    {lit(y(1), False), lit(x(4), True)},
    {lit(y(1), False), lit(x(5), True)},
    {lit(x(4), False), lit(x(5), False), lit(y(1), True)},
    {lit(y(2), False), lit(x(2), True)},
    {lit(y(2), False), lit(x(3), True)},
    {lit(y(2), False), lit(x(4), True)},
    {lit(y(2), False), lit(x(5), True)},
    {lit(y(2), False), lit(x(6), True)},
    {lit(x(2), False), lit(x(3), False), lit(x(4), False), lit(x(5), False),
     lit(x(6), False), lit(y(2), True)},
]

WORKED_ORDERED = [
    {lit(y(0), False), lit(x(1), True), lit(x(2), False), lit(x(3), False)},
    {lit(y(0), False), lit(x(2), True), lit(x(3), False)},
    {lit(y(0), False), lit(x(3), True)},
    {lit(x(1), False), lit(x(2), False), lit(x(3), False), lit(y(0), True)},
    {lit(y(1), False), lit(x(4), True), lit(x(5), False)},
    {lit(y(1), False), lit(x(5), True)},
    {lit(x(4), False), lit(x(5), False), lit(y(1), True)},
    {lit(y(2), False), lit(x(2), True), lit(x(3), False), lit(x(4), False),
     lit(x(5), False), lit(x(6), False)},
    {lit(y(2), False), lit(x(3), True), lit(x(4), False), lit(x(5), False),
     lit(x(6), False)},
    {lit(y(2), False), lit(x(4), True), lit(x(5), False), lit(x(6), False)},
    {lit(y(2), False), lit(x(5), True), lit(x(6), False)},
    {lit(y(2), False), lit(x(6), True)},
    {lit(x(2), False), lit(x(3), False), lit(x(4), False), lit(x(5), False),
     lit(x(6), False), lit(y(2), True)},
]


class TestEncodeBasic:
    def test_worked_example_counts(self):
        f = encode_basic(worked_example())
        assert len(f.variables) == 9
        assert len(f.clauses) == 13

    def test_worked_example_exact_clauses(self):
        f = encode_basic(worked_example())
        assert clause_set(f) == {frozenset(c) for c in WORKED_BASIC}

    def test_single_monomial(self):
        inst = LiteralInstance.plain(Hypergraph([7], [{7}]), [Fraction(1)])
        f = encode_basic(inst)
        assert len(f.variables) == 2
        assert clause_set(f) == {
            frozenset({lit(y(0), True), lit(x(7), False)}),
            frozenset({lit(y(0), False), lit(x(7), True)}),
        }
        assert f.tags == (("L", 0, 7), ("R", 0))

    def test_provenance_tags(self):
        f = encode_basic(worked_example())
        assert f.tags[:4] == (("L", 0, 1), ("L", 0, 2), ("L", 0, 3), ("R", 0))
        assert f.tags[-1] == ("R", 2)
        assert len([t for t in f.tags if t[0] == "R"]) == 3

    def test_literal_monomial(self):
        # (1 - x_a) * x_b with a=1, b=2
        h = Hypergraph([1, 2], [{1, 2}])
        inst = LiteralInstance(h, ({1: 0, 2: 1},), (Fraction(2),))
        f = encode_basic(inst)
        assert clause_set(f) == {
            frozenset({lit(y(0), True), lit(x(1), True), lit(x(2), False)}),
            frozenset({lit(y(0), False), lit(x(1), False)}),
            frozenset({lit(y(0), False), lit(x(2), True)}),
        }
        # truth-table check: y holds exactly when (1-a)*b does
        models = {tuple(a[v] for v in f.variables) for a in sat_assignments(f)}
        expected = {(a, b, (1 - a) * b) for a in (0, 1) for b in (0, 1)}
        assert models == expected

    def test_clause_count_formula(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng, max_v=6, max_e=6, max_deg=4)
            f = encode_basic(inst)
            expected = len(inst.hypergraph.edges) + sum(
                len(e) for e in inst.hypergraph.edges)
            assert len(f.clauses) == expected
            assert len(f.clauses) == len(encode_ordered(
                inst, inst.hypergraph.vertices).clauses)


class TestEncodeOrdered:
    def test_worked_example_exact_clauses(self):
        f = encode_ordered(worked_example(), (1, 2, 3, 4, 5, 6))
        assert len(f.variables) == 9 and len(f.clauses) == 13
        assert clause_set(f) == {frozenset(c) for c in WORKED_ORDERED}

    def test_degree_one_matches_basic(self):
        inst = LiteralInstance.plain(Hypergraph([3], [{3}]), [Fraction(5)])
        assert clause_set(encode_ordered(inst, [3])) == clause_set(encode_basic(inst))

    def test_order_must_cover_vertices(self):
        with pytest.raises(ValueError):
            encode_ordered(worked_example(), (1, 2, 3))

    def test_beta_order_preserves_beta_acyclicity(self):
        rng = random.Random(31)
        for _ in range(25):
            inst = random_beta_acyclic_instance(rng, max_v=6, max_e=6)
            order = beta_elimination_order(inst.hypergraph)
            f = encode_ordered(inst, order)
            assert is_beta_acyclic(formula_hypergraph(f))


class TestEncodingCorrectness:
    def check(self, inst):
        for f in (encode_basic(inst), encode_ordered(inst, inst.hypergraph.vertices)):
            models = {tuple(a[v] for v in f.variables) for a in sat_assignments(f)}
            assert models == multilinear_set(inst)
            assert len(models) == 2 ** len(inst.hypergraph.vertices)

    def test_random_instances(self):
        rng = random.Random(77)
        for _ in range(25):
            self.check(random_instance(rng, max_v=4, max_e=4, max_deg=4))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_random_literal_instances(self, data):
        nv = data.draw(st.integers(1, 4))
        verts = list(range(1, nv + 1))
        ne = data.draw(st.integers(1, 4))
        edges, sigmas, profits = [], [], []
        for _ in range(ne):
            e = data.draw(st.sets(st.sampled_from(verts), min_size=1))
            edges.append(frozenset(e))
            sigmas.append({v: data.draw(st.integers(0, 1)) for v in e})
            profits.append(Fraction(data.draw(st.integers(-9, 9))))
        inst = LiteralInstance(Hypergraph(verts, edges), tuple(sigmas), tuple(profits))
        self.check(inst)


class TestFormulaViews:
    def test_basic_encoding_has_beta_cycle(self):
        f = encode_basic(worked_example())
        assert not is_beta_acyclic(formula_hypergraph(f))

    def test_ordered_encoding_beta_acyclic(self):
        f = encode_ordered(worked_example(), (1, 2, 3, 4, 5, 6))
        assert is_beta_acyclic(formula_hypergraph(f))

    def test_empty_formula_hypergraph(self):
        from nnfopt import CnfFormula
        f = CnfFormula([x(1)], [])
        assert formula_hypergraph(f).edges == ()

    def test_duplicate_clause_varsets_collapse(self):
        from nnfopt import CnfFormula
        f = CnfFormula([x(1), x(2)],
                       [[lit(x(1), True), lit(x(2), True)],
                        [lit(x(1), False), lit(x(2), True)]])
        assert len(formula_hypergraph(f).edges) == 1

    def test_incidence_graph_single_monomial(self):
        h = Hypergraph([1, 2], [{1, 2}])
        f = encode_basic(LiteralInstance.plain(h, [Fraction(1)]))
        g = formula_incidence_graph(f)
        assert g.node_count == 6
        assert g.edge_count == 7

    def test_incidence_graph_worked_example(self):
        f = encode_basic(worked_example())
        g = formula_incidence_graph(f)
        assert g.node_count == 9 + 13

    def test_empty_formula_incidence_graph(self):
        from nnfopt import CnfFormula
        f = CnfFormula([x(1)], [])
        assert formula_incidence_graph(f).edge_count == 0

    def test_incidence_graph_equals_add_edge_build(self):
        # the graph's adjacency is written directly; node order and
        # neighbours must be those of add_node/add_edge calls
        for f in corpus_formulas():
            want = Graph(vertex_node(var) for var in f.variables)
            for i, cl in enumerate(f.clauses):
                want.add_node(("c", i))
                for var, _ in cl:
                    want.add_edge(vertex_node(var), ("c", i))
            got = formula_incidence_graph(f)
            assert got.nodes == want.nodes
            assert [got.neighbors(n) for n in got.nodes] == \
                [want.neighbors(n) for n in want.nodes]


class TestDimacs:
    def test_worked_example_header_and_numbering(self):
        f = encode_ordered(worked_example(), (1, 2, 3, 4, 5, 6))
        text = f.to_dimacs()
        lines = text.splitlines()
        assert lines[0] == "p cnf 9 13"
        assert len(lines) == 14
        assert all(ln.endswith(" 0") for ln in lines[1:])
        # x variables take 1..6 in vertex order, y variables 7..9
        assert f.variable_number(x(1)) == 1
        assert f.variable_number(x(6)) == 6
        assert f.variable_number(y(0)) == 7
        assert f.variable_number(y(2)) == 9

    def test_numbered_equals_variable_numbers(self):
        for f in corpus_formulas():
            assert f.numbered == tuple(
                tuple(f.variable_number(var) if sign else -f.variable_number(var)
                      for var, sign in cl) for cl in f.clauses)

    def test_non_bool_signs_keep_their_literals(self):
        # signs are kept as given and numbered by their truth value
        f = CnfFormula([x(1), x(2), x(3)], [[lit(x(3), 1), lit(x(1), 0)], [lit(x(2), None)]])
        assert f.clauses == (((x(1), 0), (x(3), 1)), ((x(2), None),))
        assert [[type(s) for _, s in cl] for cl in f.clauses] == [[int, int], [type(None)]]
        assert f.numbered == ((-1, 3), (-2,))
        assert f.to_dimacs() == "p cnf 3 2\n-1 3 0\n-2 0\n"

    def test_no_tautological_clause_possible(self):
        from nnfopt import CnfFormula
        with pytest.raises(ValueError, match="both signs"):
            CnfFormula([x(1)], [[lit(x(1), True), lit(x(1), False)]])

    def test_undeclared_variable_rejected(self):
        from nnfopt import CnfFormula
        with pytest.raises(ValueError, match=r"^undeclared variable x2$"):
            CnfFormula([x(1)], [[lit(x(2), True)]])
        with pytest.raises(ValueError, match=r"^undeclared variable y0$"):
            CnfFormula([x(1)], [[lit(x(1), True), lit(y(0), False)]])

    def test_declarations_and_tags_checked(self):
        with pytest.raises(ValueError, match="variable kind must be 'x' or 'y'"):
            CnfVariable("z", 1)
        with pytest.raises(ValueError, match="duplicate variable declaration"):
            CnfFormula([x(1), y(0), x(1)], [])
        with pytest.raises(ValueError, match="one tag per clause required"):
            CnfFormula([x(1)], [[lit(x(1), True)]], tags=[None, None])
