"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success; failures carry the measured
evidence.  Criterion 8 enforces its stated wall-clock budget on a real
subprocess pipeline.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from corpus import basic_incidence_graph, corpus_instance, worked_example, \
    random_cycle_hypergraph, random_hypergraph
from extform_reference import dual_optimize_reference
from nnfopt import (CardinalitySpec, CompileConfig, WeightFunction,
                    beta_elimination_order, brute_force, build_system,
                    certificate_point, certificate_tree_cost, compile_formula,
                    compile_instance, counting_transform, cycle_decomposition,
                    dual_optimize,
                    encode_basic, encode_ordered, enumerate_certificates,
                    enumerate_models, formula_hypergraph, from_nnf_text, gen_labs,
                    incidence_graph, is_beta_acyclic, knapsack_transform,
                    lift_decomposition, minfill_decomposition, model_count,
                    normalize_for_extform, optimize, parse_instance,
                    project_solution, restrict_cardinality, reroot, top_k,
                    to_nnf_text, tu_counterexample_check, weight_edge_costs,
                    weights_from_profits)
from nnfopt.circuit import OR, SELECTOR
from nnfopt.cnf import CnfVariable
from nnfopt.hypergraph import Hypergraph, LiteralInstance

PASS = "PASS criterion {}: {}"


def solve_instance(inst: LiteralInstance):
    circuit = compile_instance(inst)
    opt = optimize(circuit, weights_from_profits(inst))
    return circuit, opt


def xvars(inst):
    return tuple(CnfVariable("x", v) for v in inst.hypergraph.vertices)


@pytest.fixture(scope="module")
def solved_corpus():
    rng = random.Random(20250809)
    t0 = time.time()
    out = []
    for _ in range(500):
        inst = corpus_instance(rng)
        out.append((inst, *solve_instance(inst)))
    return out, time.time() - t0


class TestCriterion1OracleEquivalence:
    def test_solve_matches_oracle_on_500(self, solved_corpus):
        corpus, solve_seconds = solved_corpus
        t0 = time.time()
        for inst, circuit, opt in corpus:
            [(point, best)] = brute_force(inst, None, 1)
            assert opt.value == best
            witness_point = project_solution(opt.witness, inst)
            assert inst.value_at(witness_point) == best
        elapsed = solve_seconds + (time.time() - t0)
        print(PASS.format(1, f"500 instances match the oracle exactly "
                             f"(solve plus oracle took {elapsed:.1f}s)"))


class TestCriterion2EncodingCardinality:
    def test_model_count_is_two_to_the_vertices(self, solved_corpus):
        corpus, _ = solved_corpus
        for inst, circuit, _opt in corpus:
            assert model_count(circuit) == 2 ** len(inst.hypergraph.vertices)
        print(PASS.format(2, "compiled encodings have exactly 2^|V| models"))


class TestOrMarkers:
    def test_markers_are_bit_positions_on_500(self, solved_corpus):
        # every Or of every circuit a pass writes is marked by a bit
        # position, by SELECTOR or not at all
        corpus, _ = solved_corpus
        rng = random.Random(15)
        for inst, circuit, _opt in corpus:
            x = xvars(inst)
            coeffs = {v: rng.randint(-3, 3) for v in x}
            sums = frozenset(rng.sample(range(len(x) + 1), 2))
            derived = [circuit, normalize_for_extform(circuit),
                       counting_transform(circuit, x)[0],
                       restrict_cardinality(circuit, CardinalitySpec(x, sums)),
                       knapsack_transform(circuit, coeffs, -1, 1),
                       from_nnf_text(to_nnf_text(circuit))]
            for c in derived:
                allowed = {None, SELECTOR, *range(len(c.bit_variables))}
                kinds, _, pos, _ = c.columns
                assert all(a in allowed for kind, a in zip(kinds, pos) if kind == OR)


class TestCriterion3WorkedExample:
    def test_worked_example(self):
        inst = worked_example()
        basic = encode_basic(inst)
        ordered = encode_ordered(inst, (1, 2, 3, 4, 5, 6))
        assert len(basic.variables) == len(ordered.variables) == 9
        assert len(basic.clauses) == len(ordered.clauses) == 13
        assert not is_beta_acyclic(formula_hypergraph(basic))
        assert is_beta_acyclic(formula_hypergraph(ordered))
        _, opt = solve_instance(inst)
        assert opt.value == 9
        point = project_solution(opt.witness, inst)
        assert [point[v] for v in range(1, 7)] == [0, 1, 1, 1, 1, 1]
        print(PASS.format(3, "worked example: 9 vars, 13 clauses, optimum 9 "
                             "at (0,1,1,1,1,1), acyclicity as stated"))


class TestCriterion4CardinalityKnapsack:
    def test_200_constrained_pairs(self):
        rng = random.Random(424242)
        full_set_checks = 30
        for trial in range(200):
            inst = corpus_instance(rng)
            n = len(inst.hypergraph.vertices)
            sums = frozenset(rng.sample(range(n + 1), rng.randint(1, n + 1)))
            circuit, _ = solve_instance(inst)
            w = weights_from_profits(inst)

            restricted = restrict_cardinality(circuit, CardinalitySpec(xvars(inst), sums))
            got = optimize(restricted, w)
            oracle = brute_force(inst, sums, 1)
            if not oracle:
                assert got.value == float("-inf")
            else:
                assert got.value == oracle[0][1]

            counted, roots = counting_transform(circuit, xvars(inst))
            counts = [model_count(reroot(counted, r)) for r in roots]
            assert sum(counts) == model_count(circuit) == 2 ** n
            assert counts == [comb(n, i) for i in range(n + 1)]

            coeffs = {v: 1 for v in xvars(inst)}
            fingerprint = WeightFunction(
                circuit.variables,
                {(v, b): Fraction(rng.randint(-50, 50))
                 for v in circuit.variables for b in (0, 1)})
            for i in range(n + 1):
                ki = knapsack_transform(circuit, coeffs, i, i)
                ri = reroot(counted, roots[i])
                assert model_count(ki) == counts[i]
                assert optimize(ki, fingerprint).value == optimize(ri, fingerprint).value
                if trial < full_set_checks:
                    rows = lambda c: {tuple(m[v] for v in c.variables)
                                      for m in enumerate_models(c, cap=100000)}
                    assert rows(ki) == rows(ri)
        print(PASS.format(4, "200 constrained pairs: card optima exact, "
                             "root counts partition, knapsack matches roots"))


class TestCriterion5TopK:
    def test_200_topk_pairs(self):
        rng = random.Random(555)
        for _ in range(200):
            inst = corpus_instance(rng)
            k = rng.randint(1, 10)
            circuit, _ = solve_instance(inst)
            got = top_k(circuit, weights_from_profits(inst), k)
            expect = brute_force(inst, None, k)
            assert [v for _, v in got] == [v for _, v in expect]
        print(PASS.format(5, "200 top-k value sequences match the oracle"))


class TestCriterion6ExtendedFormulation:
    def extform_corpus(self):
        rng = random.Random(66)
        instances = [worked_example()]
        for _ in range(12):
            nv = rng.randint(1, 6)
            verts = list(range(1, nv + 1))
            edges, sigmas, profits = [], [], []
            for _ in range(rng.randint(1, 6)):
                e = rng.sample(verts, rng.randint(1, min(4, nv)))
                edges.append(frozenset(e))
                sigmas.append({v: rng.randint(0, 1) for v in e})
                profits.append(Fraction(rng.randint(-9, 9)))
            instances.append(LiteralInstance(Hypergraph(verts, edges),
                                             tuple(sigmas), tuple(profits)))
        return instances, rng

    def test_system_certificates_duality(self):
        assert tu_counterexample_check() == 2

        instances, rng = self.extform_corpus()
        for inst in instances:
            base = compile_formula(encode_basic(inst))
            norm = normalize_for_extform(base)
            system = build_system(norm, include_x=True)
            certs = enumerate_certificates(norm, cap=100000)
            assert len(certs) == 2 ** len(inst.hypergraph.vertices)
            projections = set()
            for t in certs:
                y, x = certificate_point(t, norm)
                assert system.check_point({**y, **x})
                projections.add(tuple(x[("x", v)] for v in norm.variables))
            models = {tuple(m[v] for v in norm.variables)
                      for m in enumerate_models(norm, cap=100000)}
            assert projections == models

            for _ in range(100):
                cost = {e: rng.randint(-7, 7) for e in range(norm.edge_count)}
                value, _ = dual_optimize(norm, cost)
                assert value == max(certificate_tree_cost(norm, t, cost)
                                    for t in certs)

            w = weights_from_profits(inst)
            normal, cost = weight_edge_costs(norm, w)
            value, _ = dual_optimize(normal, cost)
            assert value == optimize(base, w).value
        print(PASS.format(6, "system reproduction, determinant 2, certificate "
                             "bijection and exact duality on the corpus"))

    def test_normal_forms_pinned_on_500(self, solved_corpus):
        # the normal forms of the 500 compiled corpus circuits, node for
        # node; a rewrite of normalize_for_extform must keep them
        corpus, _ = solved_corpus
        digest = hashlib.sha256()
        for _inst, circuit, _opt in corpus:
            digest.update(to_nnf_text(normalize_for_extform(circuit)).encode())
        assert digest.hexdigest() == \
            "ef079eca15c7120799f2ea95e6afc98c6e8d4b0a006074857a56b33e5b6f87c7"
        print(PASS.format(6, "normal forms of the 500 corpus circuits unchanged"))

    def test_system_rows_pinned_on_500(self, solved_corpus):
        # every row (tag, coeffs, relation, rhs) of the flow systems of the
        # 500 corpus circuits and the worked and cyclic examples, in order;
        # a change of the system's storage must keep them
        corpus, _ = solved_corpus
        cyclic = parse_instance("2 v1 v2\n-1 v2 v3\n3 v3 v1\n1 v1 v2 v3\n").instance
        circuits = [circuit for _inst, circuit, _opt in corpus]
        circuits += [compile_instance(worked_example()), compile_instance(cyclic)]
        digest = hashlib.sha256()
        rows = 0
        for circuit in circuits:
            for row in build_system(normalize_for_extform(circuit), include_x=True).rows:
                digest.update(repr(tuple(row)).encode() + b"\n")
                rows += 1
        assert rows == 171311
        assert digest.hexdigest() == \
            "eb811265adebde35a8674097d17b5a925e666281c6af1193c0c6b9b1d0ba345b"
        print(PASS.format(6, "flow-system rows of the 500 corpus circuits unchanged"))

    def test_dual_matches_reference_on_500(self, solved_corpus):
        # the integer dual against a frozen copy of the original
        # forward pass: same value, same assignment, under integer,
        # rational (denominators 1-4), sparse and weight-placement costs
        corpus, _ = solved_corpus
        rng = random.Random(6006)
        for inst, circuit, opt in corpus:
            norm = normalize_for_extform(circuit)
            edges = range(norm.edge_count)
            costs = [{e: rng.randint(-7, 7) for e in edges},
                     {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in edges},
                     {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for e in edges if rng.random() < 0.3}]
            for cost in costs:
                assert dual_optimize(norm, cost) == dual_optimize_reference(norm, cost)
            normal, cost = weight_edge_costs(norm, weights_from_profits(inst))
            value, z = dual_optimize(normal, cost)
            assert (value, z) == dual_optimize_reference(normal, cost)
            assert value == opt.value
        print(PASS.format(6, "the integer dual equals the reference dual on the "
                             "500 corpus circuits"))

    def test_highs_lp_optimum_on_100_corpus_instances(self, solved_corpus):
        # the extended formulation is exact, checked by an LP solver that
        # shares no code with dual_optimize
        linprog = pytest.importorskip("scipy.optimize").linprog
        corpus, _ = solved_corpus
        for inst, circuit, opt in corpus[:100]:
            system = build_system(normalize_for_extform(circuit), include_x=True)
            index = {col: i for i, col in enumerate(system.columns)}
            eq, ge = [], []
            for row in system.rows:
                dense = [0.0] * len(index)
                for col, k in row.coeffs:
                    dense[index[col]] = float(k)
                (eq if row.relation == "=" else ge).append((dense, float(row.rhs)))
            objective = [0.0] * len(index)
            for i, p in enumerate(inst.profit):
                objective[index[("x", CnfVariable("y", i))]] -= float(p)
            res = linprog(objective,
                          A_ub=[[-k for k in d] for d, _ in ge] or None,
                          b_ub=[-r for _, r in ge] or None,
                          A_eq=[d for d, _ in eq] or None, b_eq=[r for _, r in eq] or None,
                          bounds=(None, None), method="highs")
            assert res.status == 0, res.message
            oracle = brute_force(inst, None, 1)[0][1]
            assert abs(-res.fun - float(opt.value)) <= 1e-7
            assert abs(-res.fun - float(oracle)) <= 1e-7
        print(PASS.format(6, "HiGHS LP optimum equals the circuit optimum and "
                             "the oracle on 100 corpus instances"))


class TestCriterion7DecompositionBounds:
    def test_lift_bound_100(self):
        rng = random.Random(777)
        for _ in range(100):
            h = random_hypergraph(rng, max_v=7, max_e=7)
            td = minfill_decomposition(incidence_graph(h))
            lifted = lift_decomposition(td, h)
            assert lifted.width <= 2 * (1 + td.width)
            lifted.validate(basic_incidence_graph(h))
        print(PASS.format(7, "lift width bound holds on 100 instances"))

    def test_cycle_width_50(self):
        rng = random.Random(778)
        for _ in range(50):
            h = random_cycle_hypergraph(rng)
            td = cycle_decomposition(h)
            assert td is not None and td.width <= 2
            td.validate(incidence_graph(h))
        print(PASS.format(7, "cycle decompositions have width at most 2 "
                             "on 50 hypergraphs"))


class TestCriterion8LabsDeskScale:
    BUDGET_SECONDS = 60

    def test_labs_20_3_within_budget(self):
        text = gen_labs(20, 3)
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nnfopt.cli", "solve", "-"],
                input=text, capture_output=True, text=True,
                timeout=self.BUDGET_SECONDS, env=env)
        except subprocess.TimeoutExpired:
            pytest.fail(
                f"solve did not finish gen-labs 20 3 within {self.BUDGET_SECONDS}s. "
                "The fully expanded instance contains every vertex pair as a "
                "monomial, so its incidence treewidth is about |V|-1 and the "
                "compiled circuit needs on the order of 2^20 nodes; measured "
                "end-to-end times grow ~4.7x per +2 vertices (0.7s at n=10, "
                "3.4s at n=12, 16s at n=14), putting n=20 near half an hour "
                "and a multi-gigabyte circuit for this pipeline.")
        elapsed = time.time() - t0
        assert proc.returncode == 0, proc.stderr
        parsed = parse_instance(text)
        [(point, inner)] = brute_force(parsed.instance, None, 1)
        expect = parsed.report_value(inner)
        got = Fraction(proc.stdout.splitlines()[0].split()[1])
        assert got == expect
        print(PASS.format(8, f"gen-labs 20 3 solved in {elapsed:.1f}s, "
                             f"optimum {got} matches the 2^20 sweep"))


class TestCriterion9Determinism:
    def test_byte_identical_runs(self, tmp_path):
        example = tmp_path / "example.poly"
        example.write_text("-3 v1 v2 v3\n4 v4 v5\n5 v2 v3 v4 v5 v6\n")
        # a cyclic instance, so the min-fill ordering path runs too
        cyclic = tmp_path / "cyclic.poly"
        cyclic.write_text("2 v1 v2\n-1 v2 v3\n3 v3 v1\n1 v1 v2 v3\n")
        commands = [
            ["solve", str(example)],
            ["solve", str(cyclic)],
            ["topk", "--k", "4", str(example)],
            ["card", "--set", "2", str(example)],
            ["compile", "--emit-cnf", "--emit-nnf", str(example)],
            ["compile", "--emit-nnf", str(cyclic)],
            ["extform", str(example)],
            ["extform", str(cyclic)],
            ["oracle", "--k", "3", str(example)],
            ["gen-labs", "8", "2"],
        ]
        for cmd in commands:
            outputs = []
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                proc = subprocess.run([sys.executable, "-m", "nnfopt.cli"] + cmd,
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, (cmd, proc.stderr)
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"nondeterministic output for {cmd}"
        print(PASS.format(9, "all subcommands byte-identical across runs"))
