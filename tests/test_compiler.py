import builtins
import hashlib
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (corpus_instance, worked_example, random_formula, random_instance,
                    sat_assignments)
from families import intervals
from nnfopt import (CnfFormula, CompileConfig, Hypergraph, beta_elimination_order,
                    check_structure, compile_formula, compile_instance, compiler,
                    encode_basic, encode_instance, encode_ordered,
                    enumerate_models, formula_incidence_graph, gen_labs,
                    incidence_graph, lift_decomposition, minfill_decomposition,
                    model_count, normalize_for_extform, order_from_beta,
                    order_from_decomposition, parse_instance, to_nnf_text)
from nnfopt.circuit import AND, OR, check_normalized
from nnfopt.cnf import CnfVariable
from nnfopt.hypergraph import TreeDecomposition, vertex_node


FRONT_HALF_SHA256 = "47b958eb76fe8c72d95dbee7fa000e4a94fab2d773ad79fdba85cf0a52976cba"
COMPILED_CIRCUITS_SHA256 = "796aeb1e08a60adf8389a52c1f758054b2ebdd73a5686ed4ecb5c6de8f7106f1"
INTERVAL_LADDER_SHA256 = "408508c14954ec3533b541f23e659543929322382ee4259c1116f79c42685978"
INTERVAL_MINFILL_SHA256 = "97230da03fba000d8dab442965edfea1d104b28ea56a55c095ace325dd5daaf8"


def x(v):
    return CnfVariable("x", v)


def model_rows(c):
    return {tuple(m[v] for v in c.variables) for m in enumerate_models(c, cap=100000)}


def truth_rows(f):
    return {tuple(a[v] for v in f.variables) for a in sat_assignments(f)}


class TestCompileSoundness:
    def test_worked_example_count(self):
        c = compile_formula(encode_basic(worked_example()))
        assert model_count(c) == 64

    def test_unsat_formula(self):
        f = CnfFormula([x(1)], [[(x(1), True)], [(x(1), False)]])
        c = compile_formula(f)
        assert model_count(c) == 0
        assert model_rows(c) == set()

    def test_unsat_formula_is_one_empty_or(self):
        f = CnfFormula([x(1)], [[(x(1), True)], [(x(1), False)]])
        c = compile_formula(f)
        assert c.columns == ([OR], [()], [None], [0])
        assert to_nnf_text(c) == "nnf 1 0 1\nO 0 0\n"
        # its normal form is the same single node, and passes the check
        n = normalize_for_extform(c)
        check_normalized(n)
        assert to_nnf_text(n) == "nnf 1 0 1\nO 0 0\n"

    def test_empty_formula_is_one_empty_and(self):
        c = compile_formula(CnfFormula([x(1), x(2)], []))
        assert c.columns == ([AND], [()], [0], [0])
        assert to_nnf_text(c) == "nnf 1 0 2\nA 0\n"

    def test_empty_formula_all_models(self):
        f = CnfFormula([x(1), x(2)], [])
        assert model_count(compile_formula(f)) == 4

    def test_random_formulas_match_truth_table(self):
        rng = random.Random(42)
        for _ in range(60):
            f = random_formula(rng)
            c = compile_formula(f)
            rep = check_structure(c)
            assert rep.decomposable and rep.deterministic
            assert model_rows(c) == truth_rows(f)

    def test_random_encodings_match_truth_table(self):
        rng = random.Random(43)
        for _ in range(25):
            inst = random_instance(rng, max_v=4, max_e=4, max_deg=3)
            for f in (encode_basic(inst),
                      encode_ordered(inst, inst.hypergraph.vertices)):
                c = compile_formula(f)
                assert model_rows(c) == truth_rows(f)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_property_truth_table(self, seed):
        f = random_formula(random.Random(seed), max_vars=5, max_clauses=8)
        c = compile_formula(f)
        assert model_rows(c) == truth_rows(f)
        rep = check_structure(c)
        assert rep.decomposable and rep.deterministic


def with_extra_clauses(rng, inst):
    """The basic and a shuffled ordered encoding of inst, each with up to
    three extra clauses over its vertex variables."""
    order = list(inst.hypergraph.vertices)
    rng.shuffle(order)
    out = []
    for enc in (encode_basic(inst), encode_ordered(inst, order)):
        xs = [v for v in enc.variables if v.kind == "x"]
        extra = [[(v, rng.random() < 0.5)
                  for v in rng.sample(xs, rng.randint(1, min(3, len(xs))))]
                 for _ in range(rng.randint(0, 3))]
        out.append(CnfFormula(enc.variables, list(enc.clauses) + extra))
    return out


class TestGatesAmongPlainClauses:
    def test_encodings_with_extra_clauses_match_truth_table(self):
        # definitional groups of both encodings propagate as gates, the
        # extra clauses one by one; orders that decide edge variables first
        # set gate outputs
        rng = random.Random(44)
        for _ in range(40):
            inst = random_instance(rng, max_v=5, max_e=5, max_deg=4)
            for f in with_extra_clauses(rng, inst):
                for hint in (None, tuple(reversed(f.variables))):
                    c = compile_formula(f, CompileConfig(order_hint=hint))
                    assert model_rows(c) == truth_rows(f)
                    rep = check_structure(c)
                    assert rep.decomposable and rep.deterministic

    def test_gate_output_in_another_clause_stays_plain(self):
        # y <-> x1 & x2 plus a clause on y: y is not a gate, the result holds
        y, x1, x2 = CnfVariable("y", 0), x(1), x(2)
        f = CnfFormula([x1, x2, y], [[(y, False), (x1, True)], [(y, False), (x2, True)],
                                     [(y, True), (x1, False), (x2, False)],
                                     [(y, True), (x1, True)]])
        c = compile_formula(f)
        assert model_rows(c) == truth_rows(f)


class TestCompileDeterminism:
    def test_identical_runs_identical_nodes(self):
        f = encode_basic(worked_example())
        c1 = compile_formula(f)
        c2 = compile_formula(f)
        assert c1.columns == c2.columns and c1.output == c2.output

    def test_order_hint_changes_shape_not_models(self):
        f = encode_basic(worked_example())
        hint = tuple(reversed(f.variables))
        c = compile_formula(f, CompileConfig(order_hint=hint))
        assert model_rows(c) == truth_rows(f)

    def test_bad_hint_rejected(self):
        f = encode_basic(worked_example())
        with pytest.raises(ValueError, match="permutation"):
            compile_formula(f, CompileConfig(order_hint=f.variables[:3]))


def compiled_circuits_digest() -> str:
    """SHA-256 over the columns, output and bit order of compiled circuits:
    random formulas under declaration order, a shuffled hint and cache
    budgets 0-2; root unit-clause cases; encodings with extra clauses under
    declaration, reversed and shuffled orders; the acceptance corpus under
    every encoding; and LABS n=8..12."""
    x1, x2, x3 = x(1), x(2), x(3)
    cases = [(CnfFormula([x1], [[]]), None),
             (CnfFormula([x1, x2], [[(x1, True)], [(x1, False)]]), None),
             (CnfFormula([x1, x2, x3], [[(x2, True)], [(x2, False), (x3, True)],
                                        [(x1, True), (x3, False)]]), None),
             (CnfFormula([x1, x2, x3], [[(x3, False)], [(x1, False), (x3, True)],
                                        [(x1, True), (x2, True), (x3, True)]]),
              CompileConfig(order_hint=(x2, x3, x1))),
             (CnfFormula([x1, x2], [[(x1, True)], [(x1, False), (x2, True)],
                                    [(x2, False)]]), None)]
    rng = random.Random(5)
    for _ in range(2000):
        f = random_formula(rng, max_vars=8, max_clauses=14)
        hint = list(f.variables)
        rng.shuffle(hint)
        cases += [(f, None), (f, CompileConfig(order_hint=hint))]
        cases += [(f, CompileConfig(cache_budget=b)) for b in (0, 1, 2)]
    rng = random.Random(44)
    for _ in range(300):
        for f in with_extra_clauses(rng, random_instance(rng, max_v=5, max_e=5, max_deg=4)):
            hint = list(f.variables)
            rng.shuffle(hint)
            cases += [(f, CompileConfig(order_hint=h))
                      for h in (None, tuple(reversed(f.variables)), hint)]
    rng = random.Random(20250809)
    insts = [corpus_instance(rng) for _ in range(300)]
    insts += [parse_instance(gen_labs(n, 3)).instance for n in range(8, 13)]
    for inst in insts:
        for encoding in ("auto", "basic", "ordered"):
            formula, hint = encode_instance(inst, encoding)
            cases.append((formula, CompileConfig(order_hint=hint)))
    digest = hashlib.sha256()
    for f, cfg in cases:
        c = compile_formula(f, cfg)
        digest.update(repr((c.columns, c.output, c.bit_variables)).encode())
    return digest.hexdigest()


class TestCompiledCircuitsPinned:
    def test_circuits_pinned(self):
        # captured before the root's unit clauses and a gate decided 0 went
        # through the propagation loop's clause and zero-gate rules
        assert compiled_circuits_digest() == COMPILED_CIRCUITS_SHA256


class TestIntervalLadderPinned:
    # both digests were captured before the residual step walked the links
    # of the cut chained gates alone

    def test_interval_ladder_pinned(self):
        # the beta order branches on a chained gate's later inputs first,
        # so a failed input sets its output to 0 at once: no gate is cut
        digest = hashlib.sha256()
        for n in (50, 100, 200, 400):
            for seed in range(3):
                c = compile_instance(intervals(n, seed))
                digest.update(repr((c.columns, c.output, c.bit_variables)).encode())
        assert digest.hexdigest() == INTERVAL_LADDER_SHA256

    def test_interval_ladder_under_minfill_pinned(self):
        # the same ordered encodings branched along a min-fill order, under
        # which hundreds of search nodes hold chained gates cut by a failed
        # input with free inputs on both sides of the cut
        digest = hashlib.sha256()
        for n in (50, 100, 200):
            for seed in range(3):
                formula, _ = encode_instance(intervals(n, seed))
                hint = order_from_decomposition(
                    minfill_decomposition(formula_incidence_graph(formula)))
                c = compile_formula(formula, CompileConfig(order_hint=hint))
                digest.update(repr((c.columns, c.output, c.bit_variables)).encode())
        assert digest.hexdigest() == INTERVAL_MINFILL_SHA256


class TestCacheBudget:
    def test_exhaustion_warns_but_stays_correct(self, caplog):
        f = encode_basic(worked_example())
        with caplog.at_level(logging.WARNING):
            c = compile_formula(f, CompileConfig(cache_budget=1))
        assert "cache budget" in caplog.text
        assert model_count(c) == 64


class TestOrderFromBeta:
    def test_worked_example_prefix(self):
        h = worked_example().hypergraph
        order = order_from_beta(h)
        xs = [v for v in order if v.kind == "x"]
        assert xs == [x(6), x(5), x(4), x(3), x(2), x(1)]
        # each edge variable sits right after its latest vertex
        names = list(order)
        assert names.index(CnfVariable("y", 2)) == names.index(x(6)) + 1

    def test_single_edge(self):
        h = Hypergraph([1, 2], [{1, 2}])
        order = order_from_beta(h)
        assert set(order) == {x(1), x(2), CnfVariable("y", 0)}

    def test_triangle_rejected(self):
        with pytest.raises(ValueError, match="beta-acyclic"):
            order_from_beta(Hypergraph([1, 2, 3], [{1, 2}, {2, 3}, {3, 1}]))


class TestOrderFromDecomposition:
    def test_single_bag(self):
        td = TreeDecomposition({0: [vertex_node(x(1)), vertex_node(x(2)), ("c", 0)]}, [])
        order = order_from_decomposition(td)
        assert set(order) == {x(1), x(2)}

    def test_path_decomposition_left_to_right(self):
        bags = {0: [vertex_node(x(1)), ("c", 0)],
                1: [vertex_node(x(1)), vertex_node(x(2))],
                2: [vertex_node(x(2)), vertex_node(x(3))]}
        td = TreeDecomposition(bags, [(0, 1), (1, 2)])
        assert order_from_decomposition(td) == (x(1), x(2), x(3))

    def test_lifted_worked_decomposition_covers_all_variables(self):
        inst = worked_example()
        h = inst.hypergraph
        lifted = lift_decomposition(minfill_decomposition(incidence_graph(h)), h)
        order = order_from_decomposition(lifted)
        f = encode_basic(inst)
        assert sorted(order, key=repr) == sorted(f.variables, key=repr)
        c = compile_formula(f, CompileConfig(order_hint=order))
        assert model_count(c) == 64

    def test_minfill_of_formula_graph_works_as_hint(self):
        f = encode_basic(worked_example())
        td = minfill_decomposition(formula_incidence_graph(f))
        order = order_from_decomposition(td)
        c = compile_formula(f, CompileConfig(order_hint=order))
        assert model_count(c) == 64

    def test_invalid_decomposition_rejected(self):
        td = TreeDecomposition({0: [vertex_node(x(1))], 1: [vertex_node(x(2))],
                                2: [vertex_node(x(1))]}, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="connectedness"):
            order_from_decomposition(td)


class TestSizeSmoke:
    def test_beta_acyclic_chain_growth(self):
        # chains of nested edges stay small under the beta order
        sizes = []
        for n in (10, 20, 40):
            verts = list(range(1, n + 1))
            edges = [frozenset(range(1, i + 1)) for i in range(2, n + 1)]
            h = Hypergraph(verts, edges)
            from fractions import Fraction
            from nnfopt import LiteralInstance
            inst = LiteralInstance.plain(h, [Fraction(1)] * len(edges))
            from nnfopt import beta_elimination_order
            f = encode_ordered(inst, beta_elimination_order(h))
            c = compile_formula(f, CompileConfig(order_hint=order_from_beta(h)))
            sizes.append(c.node_count)
        n1, n2, n3 = sizes
        total1, total3 = 10 + 9, 40 + 39
        # subquadratic growth in |V|+|E| across the corpus
        assert n3 / n1 < (total3 / total1) ** 2


class TestChainWalks:
    def test_link_walks_per_node_bounded(self, monkeypatch):
        # every walk over a chained gate's links starts with reversed();
        # the count per circuit node must not grow with n on intervals
        walks = [0]

        def counted(seq):
            walks[0] += 1
            return builtins.reversed(seq)

        monkeypatch.setattr(compiler, "reversed", counted, raising=False)
        for n in (100, 200, 400):
            for seed in range(3):
                formula, hint = encode_instance(intervals(n, seed))
                walks[0] = 0
                c = compile_formula(formula, CompileConfig(order_hint=hint))
                assert 0 < walks[0] <= 8 * c.node_count, (n, seed, walks[0] / c.node_count)


def front_half_digest() -> str:
    """SHA-256 over encode_instance's DIMACS text, clause tags and branch
    hint under every encoding, on the acceptance corpus and LABS n=8..12."""
    rng = random.Random(20250809)
    cases = [corpus_instance(rng) for _ in range(500)]
    cases += [parse_instance(gen_labs(n, 3)).instance for n in range(8, 13)]
    digest = hashlib.sha256()
    for inst in cases:
        for encoding in ("auto", "basic", "ordered"):
            formula, hint = encode_instance(inst, encoding)
            digest.update(formula.to_dimacs().encode())
            digest.update(repr(formula.tags).encode())
            digest.update(repr(hint).encode())
    return digest.hexdigest()


class TestEncodeInstance:
    def test_front_half_pinned(self):
        # captured before the min-fill limit went and the encoders merged
        assert front_half_digest() == FRONT_HALF_SHA256

    def test_beta_computed_once_on_auto(self, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h)
            return beta_elimination_order(h)

        monkeypatch.setattr(compiler, "beta_elimination_order", counted)
        formula, hint = encode_instance(worked_example())
        assert len(calls) == 1
        assert hint == order_from_beta(worked_example().hypergraph)
        assert formula.clauses == encode_ordered(worked_example(), (1, 2, 3, 4, 5, 6)).clauses

    def test_basic_skips_beta(self, monkeypatch):
        def refused(h):
            raise AssertionError("beta order computed on the basic encoding")

        monkeypatch.setattr(compiler, "beta_elimination_order", refused)
        formula, hint = encode_instance(worked_example(), "basic")
        assert formula.clauses == encode_basic(worked_example()).clauses
        assert hint == order_from_decomposition(
            minfill_decomposition(formula_incidence_graph(formula)))

    def test_large_basic_encoding_gets_minfill_hint(self):
        inst = parse_instance(gen_labs(17, 3)).instance
        formula, hint = encode_instance(inst)
        g = formula_incidence_graph(formula)
        assert g.node_count == 4615
        assert hint == order_from_decomposition(minfill_decomposition(g))

    @pytest.mark.parametrize("encoding", ["bogus", "", "Auto", None])
    def test_unknown_encoding_refused(self, encoding):
        with pytest.raises(ValueError, match="encoding"):
            encode_instance(worked_example(), encoding)
        with pytest.raises(ValueError, match="encoding"):
            compile_instance(worked_example(), encoding)
