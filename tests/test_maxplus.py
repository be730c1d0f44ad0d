import hashlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from corpus import (circuit_corpus, corpus_instance, worked_example, poly_points_sorted,
                    random_decision_dnnf, random_formula, random_instance,
                    variable_sets)
from families import intervals
from nnfopt import (NEG_INF, CardinalitySpec, CircuitBuilder, CompileConfig, NnfCircuit,
                    WeightFunction, brute_force, compile_formula, compile_instance, encode_basic,
                    enumerate_models, evaluate, gen_labs, optimize, parse_instance,
                    project_solution, restrict_cardinality, top_k, weights_from_profits)
from nnfopt.cnf import CnfFormula, CnfVariable, instance_variables


def x(v):
    return CnfVariable("x", v)


def y(i):
    return CnfVariable("y", i)


def compiled_worked():
    return compile_formula(encode_basic(worked_example()))


def undecided_or():
    """Or(x1, -x1) over (x1,) with no decision marker: not deterministic."""
    b = CircuitBuilder((x(1),))
    return b.finish(b.add_or((b.literal(x(1), True), b.literal(x(1), False))))


def random_weights(rng, variables):
    return WeightFunction(
        variables,
        {(v, b): Fraction(rng.randint(-20, 20), rng.randint(1, 3))
         for v in variables for b in (0, 1)})


class TestWeightsFromProfits:
    def test_worked_example(self):
        inst = worked_example()
        w = weights_from_profits(inst)
        assert w.weight(y(0), 1) == -3
        assert w.weight(y(1), 1) == 4
        assert w.weight(y(2), 1) == 5
        for var in instance_variables(inst):
            assert w.weight(var, 0) == 0
            if var.kind == "x":
                assert w.weight(var, 1) == 0

    def test_zero_profits(self):
        inst = worked_example()
        zero = type(inst)(inst.hypergraph, inst.sigma,
                          (Fraction(0),) * len(inst.profit))
        w = weights_from_profits(zero)
        assert all(w.weight(v, b) == 0
                   for v in instance_variables(zero) for b in (0, 1))

    def test_single_monomial(self):
        from nnfopt import Hypergraph, LiteralInstance
        inst = LiteralInstance.plain(Hypergraph([1], [{1}]), [Fraction(7)])
        w = weights_from_profits(inst)
        nonzero = [(v, b) for v in instance_variables(inst) for b in (0, 1)
                   if w.weight(v, b) != 0]
        assert nonzero == [(y(0), 1)]

    def test_table_outside_the_universe_refused(self):
        with pytest.raises(ValueError, match=r"weight on undeclared variable x2"):
            WeightFunction((x(1),), {(x(2), 1): 1})
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            WeightFunction((x(1),), {(x(1), 2): 1})


class TestOptimize:
    def test_worked_example(self):
        inst = worked_example()
        opt = optimize(compiled_worked(), weights_from_profits(inst))
        assert opt.value == 9
        point = project_solution(opt.witness, inst)
        assert point == {1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_const_false(self):
        b = CircuitBuilder((x(1),))
        c = b.finish(b.false())
        opt = optimize(c, WeightFunction((x(1),), {}))
        assert opt.value == NEG_INF and opt.witness is None

    def test_all_zero_weights(self):
        c = compiled_worked()
        w = WeightFunction(c.variables, {})
        opt = optimize(c, w)
        assert opt.value == 0 and evaluate(c, opt.witness)

    def test_matches_enumeration_on_corpus(self):
        rng = random.Random(91)
        for c in circuit_corpus(rng, count=6):
            w = random_weights(rng, c.variables)
            models = enumerate_models(c, cap=100000)
            opt = optimize(c, w)
            if not models:
                assert opt.value == NEG_INF
                continue
            best = max(w.value_of(m) for m in models)
            assert opt.value == best
            assert w.value_of(opt.witness) == best

    def test_weight_universe_must_match(self):
        c = compiled_worked()
        with pytest.raises(ValueError, match="universe"):
            optimize(c, WeightFunction((x(1),), {}))

    def test_nondeterministic_circuit_refused(self):
        # an Or without a decision marker; a foreign universe is named first
        c = undecided_or()
        with pytest.raises(ValueError, match="weight universe must match"):
            optimize(c, WeightFunction((x(2),), {}))
        with pytest.raises(ValueError, match="query needs a decomposable, deterministic circuit"):
            optimize(c, WeightFunction((x(1),), {}))


class TestProjectSolution:
    def test_round_trip_optimal_sets(self):
        # projections of all optimal circuit models equal the polynomial's
        # argmax set, for small random instances
        rng = random.Random(17)
        for _ in range(12):
            inst = random_instance(rng, max_v=5, max_e=5, max_deg=3)
            c = compile_formula(encode_basic(inst))
            w = weights_from_profits(inst)
            models = enumerate_models(c, cap=100000)
            best = max(w.value_of(m) for m in models)
            got = {tuple(project_solution(m, inst)[v]
                         for v in inst.hypergraph.vertices)
                   for m in models if w.value_of(m) == best}
            rows = poly_points_sorted(inst)
            top = rows[0][1]
            expect = {bits for bits, val in rows if val == top}
            assert got == expect and best == top

    def test_all_ones_value(self):
        inst = worked_example()
        tau = {x(v): 1 for v in range(1, 7)}
        tau.update({y(i): 1 for i in range(3)})
        point = project_solution(tau, inst)
        assert inst.value_at(point) == -3 + 4 + 5 == 6

    def test_all_zero(self):
        inst = worked_example()
        tau = {x(v): 0 for v in range(1, 7)}
        tau.update({y(i): 0 for i in range(3)})
        assert inst.value_at(project_solution(tau, inst)) == 0

    def test_non_model_rejected(self):
        inst = worked_example()
        tau = {x(v): 1 for v in range(1, 7)}
        tau.update({y(i): 0 for i in range(3)})
        with pytest.raises(ValueError, match="multilinear"):
            project_solution(tau, inst)


class TestTopK:
    def test_k1_matches_optimize(self):
        inst = worked_example()
        c = compiled_worked()
        w = weights_from_profits(inst)
        [(assignment, value)] = top_k(c, w, 1)
        assert value == optimize(c, w).value == 9
        assert evaluate(c, assignment)

    def test_worked_top3_values(self):
        inst = worked_example()
        vals = [v for _, v in top_k(compiled_worked(), weights_from_profits(inst), 3)]
        expected = [v for _, v in poly_points_sorted(inst)[:3]]
        assert vals == expected == [9, 6, 4]

    def test_const_false_empty(self):
        b = CircuitBuilder((x(1),))
        c = b.finish(b.false())
        assert top_k(c, WeightFunction((x(1),), {}), 4) == []

    def test_values_match_sorted_enumeration(self):
        rng = random.Random(23)
        for c in circuit_corpus(rng, count=6):
            w = random_weights(rng, c.variables)
            models = enumerate_models(c, cap=100000)
            ranked = sorted((w.value_of(m) for m in models), reverse=True)
            for k in (1, 3, 7):
                got = top_k(c, w, k)
                assert [v for _, v in got] == ranked[:k]
                assigns = [tuple(a[v] for v in c.variables) for a, _ in got]
                assert len(set(assigns)) == len(assigns)
                for a, v in got:
                    assert evaluate(c, a) and w.value_of(a) == v

    def test_fewer_than_k_models(self):
        rng = random.Random(2)
        inst = random_instance(rng, max_v=2, max_e=2, max_deg=2)
        c = compile_formula(encode_basic(inst))
        n_models = len(enumerate_models(c, cap=1000))
        assert len(top_k(c, weights_from_profits(inst), n_models + 5)) == n_models

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k(compiled_worked(), weights_from_profits(worked_example()), 0)

    @pytest.mark.parametrize("k", [2.5, "3", -1, None])
    def test_k_must_be_a_positive_int(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            top_k(compiled_worked(), weights_from_profits(worked_example()), k)

    def test_checks_k_then_universe_then_structure(self):
        c, foreign = undecided_or(), WeightFunction((x(2),), {})
        with pytest.raises(ValueError, match="k must be a positive integer"):
            top_k(c, foreign, 0)
        with pytest.raises(ValueError, match="weight universe must match the circuit universe"):
            top_k(c, foreign, 1)
        with pytest.raises(ValueError, match="query needs a decomposable, deterministic circuit"):
            top_k(c, WeightFunction((x(1),), {}), 1)

    @pytest.mark.parametrize("k", [2.5, "3", 0, -1, None])
    def test_brute_force_k_must_be_a_positive_int(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            brute_force(worked_example(), k=k)

    def test_k_past_sys_maxsize_returns_every_model(self):
        inst = parse_instance("2 v1 v2\n-1 v2 v3\n3 v3 v1\n").instance
        c, w = compile_instance(inst), weights_from_profits(inst)
        every = top_k(c, w, 8)
        assert len(every) == 8
        assert top_k(c, w, 2 ** 70) == every

    def test_deep_chain_runs_without_recursion(self):
        # 20,000 gates deep: each variable adds an Or deciding it over two
        # Ands, each of one of its literals and the chain built so far
        rng = random.Random(19)
        universe = [f"v{i}" for i in range(10_000)]
        b = CircuitBuilder(universe)
        below = b.true()
        for v in universe:
            below = b.add_or([b.add_and((b.literal(v, sign), below)) for sign in (True, False)], v)
        c = b.finish(below)
        w = WeightFunction(universe, {(v, rng.randint(0, 1)): rng.randint(1, 9) for v in universe})
        opt = optimize(c, w)
        best = top_k(c, w, 3)
        assert best[0] == (opt.witness, opt.value)
        assert opt.value > best[1][1] >= best[2][1]


def ranked_models(c, w):
    """The oracle order of top_k: value nonincreasing, then the assignment
    in universe order ascending."""
    models = enumerate_models(c, cap=100000)
    return sorted(((m, w.value_of(m)) for m in models),
                  key=lambda mv: (-mv[1], tuple(mv[0][v] for v in c.variables)))


def assert_top_k_matches_oracle(c, w, ks):
    ranked = ranked_models(c, w)
    for k in ks:
        got = top_k(c, w, k)
        assert got == ranked[:k]
        for a, _ in got:
            assert list(a) == list(c.variables)
    return len(ranked)


class TestTopKOracle:
    def test_random_nonsmooth_decision_dnnf(self):
        rng = random.Random(41)
        universe = tuple(f"z{i}" for i in (3, 0, 5, 1, 6, 2, 4))
        free_or_child = free_output = 0
        for _ in range(120):
            c = random_decision_dnnf(rng, universe)
            vs = variable_sets(c)
            free_output += vs[c.output] != set(universe)
            free_or_child += any(kind == "O" and vs[ch] != vs[nid]
                                 for nid, kind in enumerate(c.columns[0])
                                 for ch in c.record_kids[nid])
            table = {(v, bit): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for v in universe for bit in (0, 1)}
            assert_top_k_matches_oracle(c, WeightFunction(universe, table), (1, 2, 5, 200))
        assert free_output > 20 and free_or_child > 20

    def test_literal_blocks_over_permuted_bit_variables(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(60):
            f = random_formula(rng)
            hint = list(f.variables)
            rng.shuffle(hint)
            c = compile_formula(f, CompileConfig(order_hint=hint))
            kinds, _, pos, neg = c.columns
            if c.bit_variables == c.variables or not any(
                    kind == "A" and (a or b) for kind, a, b in zip(kinds, pos, neg)):
                continue
            checked += 1
            assert_top_k_matches_oracle(c, random_weights(rng, c.variables), (1, 3, 8))
        assert checked >= 10

    def test_ties_from_zero_and_repeated_weights(self):
        rng = random.Random(47)
        for c in circuit_corpus(rng, count=8):
            zero = WeightFunction(c.variables, {})
            assert_top_k_matches_oracle(c, zero, (1, 4, 9))
            repeated = WeightFunction(
                c.variables, {(v, bit): rng.choice((-1, 0, 0, 1))
                              for v in c.variables for bit in (0, 1)})
            assert_top_k_matches_oracle(c, repeated, (1, 4, 9))

    def test_k_above_model_count(self):
        rng = random.Random(53)
        for c in circuit_corpus(rng, count=6):
            w = random_weights(rng, c.variables)
            n_models = len(enumerate_models(c, cap=100000))
            assert_top_k_matches_oracle(c, w, (n_models, n_models + 1, 3 * n_models + 7))
            assert len(top_k(c, w, n_models + 1)) == n_models

    def test_unsatisfiable_circuits(self):
        universe = (x(1), x(2))
        w = WeightFunction(universe, {(x(1), 1): 2})
        b = CircuitBuilder(universe)
        lit = b.literal(x(1), True)
        dead = b.add_and((lit, b.false()))
        c = b.finish(b.add_or((dead,), x(1)))
        assert top_k(c, w, 3) == []
        f = CnfFormula(universe, [[(x(1), True), (x(2), True)], [(x(1), False)],
                                  [(x(2), False)]])
        compiled = compile_formula(f)
        assert top_k(compiled, w, 3) == [] == enumerate_models(compiled)

    def test_true_output_ranks_the_whole_universe(self):
        universe = (x(2), x(1), x(3))
        b = CircuitBuilder(universe)
        c = b.finish(b.true())
        w = WeightFunction(universe, {(x(1), 1): 1, (x(3), 0): 1})
        got = top_k(c, w, 8)
        assert got == ranked_models(c, w)
        assert [v for _, v in got] == [2, 2, 1, 1, 1, 1, 0, 0]
        assert got[0][0] == {x(2): 0, x(1): 1, x(3): 0}


TOP_K_SHA256 = "70685844c72c27e156345024dbbe72f59ffaee524fe4a91241afaa8d627c97ad"


def top_k_digest() -> str:
    """SHA-256 over full top_k outputs, each model as its bits in universe
    order and its value: acceptance-corpus instances, LABS n=8..12,
    interval ladders, cardinality-restricted corpus circuits (SELECTOR
    Ors and padding) and tie-heavy weights on random decision-DNNFs whose
    bit order is a permutation of the universe."""
    digest = hashlib.sha256()

    def pin(c, w, ks):
        for k in ks:
            digest.update(repr([("".join(str(a[v]) for v in c.variables), str(value))
                                for a, value in top_k(c, w, k)]).encode())

    rng = random.Random(20251020)
    for _ in range(300):
        inst = corpus_instance(rng)
        c = compile_instance(inst)
        w = weights_from_profits(inst)
        pin(c, w, (1, 4, 37))
        xs = tuple(x(v) for v in inst.hypergraph.vertices)
        sums = rng.sample(range(len(xs) + 1), rng.randint(1, len(xs) + 1))
        pin(restrict_cardinality(c, CardinalitySpec(xs, sums)), w, (1, 4, 37))
    for n in range(8, 13):
        inst = parse_instance(gen_labs(n, 3)).instance
        pin(compile_instance(inst), weights_from_profits(inst), (5, 100))
    for n in (50, 100):
        for s in range(3):
            inst = intervals(n, s)
            pin(compile_instance(inst), weights_from_profits(inst), (1, 10, 100))
    rng = random.Random(20251021)
    for _ in range(150):
        universe = [f"z{i}" for i in range(rng.randint(1, 9))]
        c = random_decision_dnnf(rng, universe)
        rng.shuffle(universe)
        c = NnfCircuit(tuple(universe), c.bit_variables, c.columns, c.output)
        w = WeightFunction(universe, {(v, bit): rng.choice((-1, 0, 0, 1))
                                      for v in universe for bit in (0, 1)})
        pin(c, w, (1, 3, 10, 600))
    return digest.hexdigest()


class TestTopKPinned:
    def test_top_k_pinned(self):
        # captured before top-k entries became single ints
        assert top_k_digest() == TOP_K_SHA256


OPTIMIZE_SHA256 = "76ea8b797c2c09541a6a9d454804dfabf26bdc2099147db1d34fed17d0b0d78d"


def optimize_digest() -> str:
    """SHA-256 over optimize's (value, witness) pairs, each witness as its
    bits in universe order: acceptance-corpus instances, LABS n=8..12,
    compiled formulas and random non-smooth decision-DNNFs over bit orders
    that permute the universe, under tie-heavy, negative and fractional
    weights, and unsatisfiable circuits."""
    digest = hashlib.sha256()

    def pin(c, w):
        opt = optimize(c, w)
        bits = None if opt.witness is None else "".join(str(opt.witness[v]) for v in c.variables)
        digest.update(repr((str(opt.value), bits)).encode())

    rng = random.Random(20261021)
    for _ in range(200):
        inst = corpus_instance(rng)
        pin(compile_instance(inst), weights_from_profits(inst))
    for n in range(8, 13):
        inst = parse_instance(gen_labs(n, 3)).instance
        pin(compile_instance(inst), weights_from_profits(inst))
    weights = (lambda: rng.choice((-1, 0, 0, 1)), lambda: rng.randint(-9, -1),
               lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
    for _ in range(150):
        universe = [f"z{i}" for i in range(rng.randint(1, 9))]
        c = random_decision_dnnf(rng, universe)
        rng.shuffle(universe)
        c = NnfCircuit(tuple(universe), c.bit_variables, c.columns, c.output)
        for draw in weights:
            pin(c, WeightFunction(universe, {(v, bit): draw() for v in universe
                                             for bit in (0, 1)}))
    for _ in range(60):
        f = random_formula(rng)
        hint = list(f.variables)
        rng.shuffle(hint)
        c = compile_formula(f, CompileConfig(order_hint=hint))
        for draw in weights:
            pin(c, WeightFunction(c.variables, {(v, bit): draw() for v in c.variables
                                                for bit in (0, 1)}))
    universe = (x(1), x(2))
    w = WeightFunction(universe, {(x(1), 1): 2, (x(2), 0): Fraction(-1, 2)})
    b = CircuitBuilder(universe)
    dead = b.add_and((b.literal(x(1), True), b.false()))
    pin(b.finish(b.add_or((dead,), x(1))), w)
    pin(compile_formula(CnfFormula(universe, [[(x(1), True), (x(2), True)], [(x(1), False)],
                                              [(x(2), False)]])), w)
    return digest.hexdigest()


class TestOptimizePinned:
    def test_optimize_pinned(self):
        # captured before optimize's pass moved from completed weights to regrets
        assert optimize_digest() == OPTIMIZE_SHA256


class TestScalingInvariance:
    def test_positive_scaling_keeps_argmax_set(self):
        rng = random.Random(3)
        for _ in range(10):
            inst = random_instance(rng, max_v=5, max_e=5, max_deg=3)
            c = compile_formula(encode_basic(inst))
            w = weights_from_profits(inst)
            factor = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            models = enumerate_models(c, cap=100000)

            def argmax_points(weights):
                best = max(weights.value_of(m) for m in models)
                return {tuple(project_solution(m, inst)[v]
                              for v in inst.hypergraph.vertices)
                        for m in models if weights.value_of(m) == best}

            scaled = WeightFunction(w.universe, {(v, b): w.weight(v, b) * factor
                                                 for v in w.universe for b in (0, 1)})
            assert argmax_points(w) == argmax_points(scaled)
            assert optimize(c, w).witness == optimize(c, scaled).witness


class TestWitnessCheck:
    def test_failed_model_check_raises(self, monkeypatch):
        import nnfopt.maxplus as mp
        monkeypatch.setattr(mp, "evaluate", lambda circuit, witness: False)
        with pytest.raises(RuntimeError, match="not a model"):
            optimize(compiled_worked(), weights_from_profits(worked_example()))

    def test_wrong_value_witness_raises(self, monkeypatch):
        # x2 is free in the circuit, so completing it with its worse bit
        # still gives a model, one that misses the optimum by 5
        b = CircuitBuilder((x(1), x(2)))
        c = b.finish(b.literal(x(1), True))
        w = WeightFunction((x(1), x(2)), {(x(1), 1): Fraction(1, 3), (x(2), 1): 5})
        assert optimize(c, w).witness == {x(1): 1, x(2): 1}
        monkeypatch.setattr(WeightFunction, "slack_bit", lambda self, var: 0)
        with pytest.raises(RuntimeError, match="does not attain"):
            optimize(c, w)

    def test_check_runs_under_optimized_bytecode(self):
        # python -O strips assert statements; the witness check must stay
        script = (
            "import nnfopt.maxplus as mp\n"
            "from nnfopt import compile_formula, encode_basic, parse_instance\n"
            "inst = parse_instance('-3 v1 v2 v3\\n4 v4 v5\\n').instance\n"
            "c = compile_formula(encode_basic(inst))\n"
            "mp.evaluate = lambda circuit, witness: False\n"
            "try:\n"
            "    mp.optimize(c, mp.weights_from_profits(inst))\n"
            "except RuntimeError as exc:\n"
            "    print('raised', exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised optimum witness is not a model")
