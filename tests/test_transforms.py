import hashlib
import random
from itertools import product
from math import comb
from fractions import Fraction

import pytest

from corpus import (circuit_corpus, corpus_instance, worked_example,
                    poly_points_sorted, random_decision_dnnf, random_formula,
                    random_instance, variable_sets)
from families import interval_instance
from nnfopt import (NEG_INF, CardinalitySpec, CircuitBuilder, CompileConfig,
                    WeightFunction, beta_elimination_order, brute_force,
                    build_system, check_structure, compile_formula,
                    compile_instance, counting_transform, dual_optimize,
                    encode_basic, encode_ordered, enumerate_certificates,
                    enumerate_models, evaluate, from_nnf_text, knapsack_transform,
                    model_count, normalize_for_extform, optimize, parse_instance,
                    project_solution, reroot, restrict_cardinality,
                    smooth_binary_form, to_nnf_text, top_k, weight_edge_costs,
                    weights_from_profits)
from nnfopt.circuit import SELECTOR, check_normalized
from nnfopt.cnf import CnfVariable


def x(v):
    return CnfVariable("x", v)


def xvars(inst):
    return tuple(x(v) for v in inst.hypergraph.vertices)


def compiled_worked():
    return compile_formula(encode_basic(worked_example()))


def model_rows(c):
    return {tuple(m[v] for v in c.variables) for m in enumerate_models(c, cap=200000)}


class TestCountingTransform:
    def test_worked_root_counts_are_binomials(self):
        inst = worked_example()
        c = compiled_worked()
        counted, roots = counting_transform(c, xvars(inst))
        assert len(roots) == 7
        counts = [model_count(reroot(counted, r)) for r in roots]
        assert counts == [comb(6, i) for i in range(7)]

    def test_roots_partition_models(self):
        rng = random.Random(5)
        for c in circuit_corpus(rng, count=5):
            subset = tuple(c.variables[::2])
            counted, roots = counting_transform(c, subset)
            total = sum(model_count(reroot(counted, r)) for r in roots)
            assert total == model_count(c)
            assert model_count(counted) == model_count(c)

    def test_root_two_optimum(self):
        inst = worked_example()
        counted, roots = counting_transform(compiled_worked(), xvars(inst))
        opt = optimize(reroot(counted, roots[2]), weights_from_profits(inst))
        assert opt.value == 4

    def test_root_model_sets_exact(self):
        rng = random.Random(29)
        for c in circuit_corpus(rng, count=5):
            if len(c.variables) > 10:
                continue
            counted_vars = tuple(v for i, v in enumerate(c.variables) if i % 2 == 0)
            counted, roots = counting_transform(c, counted_vars)
            base = enumerate_models(c, cap=100000)
            pos = {v: i for i, v in enumerate(c.variables)}
            idx = [pos[v] for v in counted_vars]
            base_rows = {tuple(m[v] for v in c.variables) for m in base}
            for i, r in enumerate(roots):
                got = model_rows(reroot(counted, r))
                expect = {row for row in base_rows if sum(row[j] for j in idx) == i}
                assert got == expect

    def test_structure_preserved(self):
        rng = random.Random(31)
        for c in circuit_corpus(rng, count=4):
            counted, roots = counting_transform(c, c.variables)
            rep = check_structure(counted)
            assert rep.decomposable and rep.deterministic and rep.smooth


class TestRestrictCardinality:
    def test_full_range_keeps_models(self):
        inst = worked_example()
        c = compiled_worked()
        spec = CardinalitySpec(xvars(inst), range(7))
        assert model_rows(restrict_cardinality(c, spec)) == model_rows(c)

    def test_exactly_two(self):
        inst = worked_example()
        spec = CardinalitySpec(xvars(inst), {2})
        c2 = restrict_cardinality(compiled_worked(), spec)
        opt = optimize(c2, weights_from_profits(inst))
        assert opt.value == 4
        assert sum(project_solution(opt.witness, inst).values()) == 2
        rep = check_structure(c2)
        assert rep.decomposable and rep.deterministic and rep.smooth

    def test_empty_set_unsatisfiable(self):
        inst = worked_example()
        spec = CardinalitySpec(xvars(inst), ())
        c2 = restrict_cardinality(compiled_worked(), spec)
        assert optimize(c2, weights_from_profits(inst)).value == NEG_INF

    def test_out_of_range_sums_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CardinalitySpec((x(1),), {2})

    def test_non_integral_sums_rejected(self):
        # truncating 3/2 to 1 would admit sum 1
        with pytest.raises(ValueError, match="sum must be an integer"):
            CardinalitySpec((x(1), x(2)), [Fraction(3, 2)])

    def test_repeated_counted_variables_rejected(self):
        # the oracle would count a repeated vertex twice and the transform
        # once, so neither may see such a spec
        with pytest.raises(ValueError, match="counted variables must be distinct"):
            brute_force(worked_example(), CardinalitySpec((1, 1), [2]))
        with pytest.raises(ValueError, match="counted variables must be distinct"):
            restrict_cardinality(compiled_worked(), CardinalitySpec((x(1), x(1)), {1}))

    def test_composition_matches_constrained_brute_force(self):
        rng = random.Random(47)
        for _ in range(15):
            inst = random_instance(rng, max_v=6, max_e=5, max_deg=4)
            n = len(inst.hypergraph.vertices)
            sums = frozenset(rng.sample(range(n + 1), rng.randint(1, n + 1)))
            order = beta_elimination_order(inst.hypergraph)
            f = encode_ordered(inst, order) if order is not None else encode_basic(inst)
            c = restrict_cardinality(compile_formula(f),
                                     CardinalitySpec(xvars(inst), sums))
            opt = optimize(c, weights_from_profits(inst))
            rows = poly_points_sorted(inst, feasible=lambda bits: sum(bits) in sums)
            if not rows:
                assert opt.value == NEG_INF
            else:
                assert opt.value == rows[0][1]


class TestKnapsackTransform:
    def test_unit_coefficients_match_counting_roots(self):
        inst = worked_example()
        c = compiled_worked()
        counted, roots = counting_transform(c, xvars(inst))
        coeffs = {v: 1 for v in xvars(inst)}
        for i in range(7):
            k = knapsack_transform(c, coeffs, i, i)
            assert model_rows(k) == model_rows(reroot(counted, roots[i]))

    def test_plus_minus_balance(self):
        b = CircuitBuilder((x(1), x(2)))
        c = b.finish(b.true())
        k = knapsack_transform(c, {x(1): 1, x(2): -1}, 0, 0)
        assert model_rows(k) == {(0, 0), (1, 1)}

    def test_unreachable_interval_empty(self):
        inst = worked_example()
        coeffs = {v: 1 for v in xvars(inst)}
        k = knapsack_transform(compiled_worked(), coeffs, 7, 10)
        assert model_rows(k) == set()

    def test_negative_costs_against_enumeration(self):
        rng = random.Random(13)
        for c in circuit_corpus(rng, count=5):
            if len(c.variables) > 10:
                continue
            coeffs = {v: rng.randint(-3, 3) for v in c.variables}
            lo, hi = sorted((rng.randint(-4, 4), rng.randint(-4, 4)))
            k = knapsack_transform(c, coeffs, lo, hi)
            rep = check_structure(k)
            assert rep.decomposable and rep.deterministic and rep.smooth
            pos = {v: i for i, v in enumerate(c.variables)}
            expect = set()
            for row in model_rows(c):
                total = sum(coeffs[v] * row[pos[v]] for v in c.variables)
                if lo <= total <= hi:
                    expect.add(row)
            assert model_rows(k) == expect

    def test_non_integral_bounds_rejected(self):
        # over -1 v1, -1 v2 only the sum 1 lies in [1/2, 19/10], so the
        # optimum is -1; truncating the bounds to [0, 1] gave 0
        c = compile_instance(parse_instance("-1 v1\n-1 v2\n").instance)
        coeffs = {x(1): 1, x(2): 1}
        with pytest.raises(ValueError, match="knapsack bound must be an integer"):
            knapsack_transform(c, coeffs, Fraction(1, 2), Fraction(19, 10))
        with pytest.raises(ValueError, match="knapsack bound must be an integer"):
            knapsack_transform(c, coeffs, 1, 1.5)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            knapsack_transform(compiled_worked(), {}, 2, 1)

    def test_non_ddnnf_circuit_rejected(self):
        # an Or without a decision marker is not deterministic
        b = CircuitBuilder((x(1),))
        c = b.finish(b.add_or((b.literal(x(1), True), b.literal(x(1), False))))
        message = "transform needs a decomposable, deterministic circuit"
        with pytest.raises(ValueError, match=message):
            knapsack_transform(c, {x(1): 1}, 0, 1)
        with pytest.raises(ValueError, match=message):
            restrict_cardinality(c, CardinalitySpec((x(1),), {1}))


PINNED_TIE_BREAK_DIGEST = "05ffb8dc6f551cec59ea732d1a4c4e28de5745a35c3fe0d54f82e3f77084160a"


def tie_heavy_weights(rng, variables):
    return WeightFunction(variables, {(v, bit): rng.choice((-1, 0, 0, 1))
                                      for v in variables for bit in (0, 1)})


def assert_constrained_optimum(transformed, c, w, feasible):
    """optimize on the transformed circuit against enumeration of c."""
    values = [w.value_of(m) for m in enumerate_models(c, cap=100000) if feasible(m)]
    opt = optimize(transformed, w)
    if not values:
        assert opt.value == NEG_INF and opt.witness is None
        return False
    assert opt.value == max(values)
    assert evaluate(c, opt.witness) and feasible(opt.witness)
    assert w.value_of(opt.witness) == opt.value
    return True


def check_transforms(rng, c):
    """Restrict, knapsack, and both composed, on a random counted subset
    and random coefficients in -2..3 (zeros included), against enumeration."""
    universe = c.variables
    counted = tuple(rng.sample(universe, rng.randint(1, len(universe))))
    sums = frozenset(rng.sample(range(len(counted) + 1), rng.randint(1, len(counted) + 1)))
    coeffs = {v: rng.randint(-2, 3) for v in universe if rng.random() < 0.8}
    lo = rng.randint(-3, 4)
    hi = lo + rng.randint(0, 4)
    in_card = lambda m: sum(m[v] for v in counted) in sums
    in_knap = lambda m: lo <= sum(cv * m[v] for v, cv in coeffs.items()) <= hi
    w = tie_heavy_weights(rng, universe)
    restricted = restrict_cardinality(c, CardinalitySpec(counted, sums))
    constrained = knapsack_transform(c, coeffs, lo, hi)
    both = knapsack_transform(restricted, coeffs, lo, hi)
    feasible = assert_constrained_optimum(restricted, c, w, in_card)
    assert_constrained_optimum(constrained, c, w, in_knap)
    assert_constrained_optimum(both, c, w, lambda m: in_card(m) and in_knap(m))
    for t in (restricted, constrained, both):
        rep = check_structure(t)
        assert rep.decomposable and rep.deterministic and rep.smooth
    return feasible


def tie_break_transcript(seed: int = 79) -> str:
    """Witnesses of optimize on restricted, knapsack and composed circuits
    under tie-heavy weights, as bit strings in universe order: random
    non-smooth decision-DNNFs and compiled circuits with literal blocks
    over permuted bit variables."""
    rng = random.Random(seed)
    universe = tuple(f"z{i}" for i in (4, 1, 6, 0, 3, 5, 2))
    circuits = [random_decision_dnnf(rng, universe) for _ in range(60)]
    for _ in range(20):
        f = random_formula(rng)
        hint = list(f.variables)
        rng.shuffle(hint)
        circuits.append(compile_formula(f, CompileConfig(order_hint=hint)))
    lines = []
    for c in circuits:
        counted = tuple(rng.sample(c.variables, rng.randint(1, len(c.variables))))
        sums = rng.sample(range(len(counted) + 1), len(counted) // 2 + 1)
        coeffs = {v: rng.randint(-2, 3) for v in c.variables}
        lo = rng.randint(-2, 2)
        w = tie_heavy_weights(rng, c.variables)
        restricted = restrict_cardinality(c, CardinalitySpec(counted, sums))
        for t in (restricted, knapsack_transform(c, coeffs, lo, lo + 4),
                  knapsack_transform(restricted, coeffs, lo, lo + 5)):
            witness = optimize(t, w).witness
            lines.append("-" if witness is None else
                         "".join(str(witness[v]) for v in c.variables))
    return " ".join(lines)


class TestColumnarCopyOracle:
    def test_tie_breaks_match_the_smooth_binary_form(self):
        # digest of the transcript taken from the implementation that
        # copied smooth_binary_form(c) node by node: optimize's ties go to
        # the first Or child and to the smallest left partial sum, so the
        # witnesses pin the order of children and alternatives
        transcript = tie_break_transcript()
        assert transcript.count("-") < 100     # of 240 witnesses
        digest = hashlib.sha256(transcript.encode()).hexdigest()
        assert digest == PINNED_TIE_BREAK_DIGEST

    def test_nonsmooth_inputs_with_free_variables(self):
        rng = random.Random(61)
        universe = tuple(f"z{i}" for i in (4, 1, 6, 0, 3, 5, 2))
        free_or_child = free_output = feasible = 0
        for _ in range(150):
            c = random_decision_dnnf(rng, universe)
            vs = variable_sets(c)
            free_output += vs[c.output] != set(universe)
            free_or_child += any(kind == "O" and vs[ch] != vs[nid]
                                 for nid, kind in enumerate(c.columns[0])
                                 for ch in c.record_kids[nid])
            feasible += check_transforms(rng, c)
        assert free_output > 20 and free_or_child > 20 and feasible > 50

    def test_literal_blocks_over_permuted_bit_variables(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(80):
            f = random_formula(rng)
            hint = list(f.variables)
            rng.shuffle(hint)
            c = compile_formula(f, CompileConfig(order_hint=hint))
            kinds, _, pos, neg = c.columns
            if c.bit_variables == c.variables or not any(
                    kind == "A" and (a or b) for kind, a, b in zip(kinds, pos, neg)):
                continue
            checked += 1
            check_transforms(rng, c)
        assert checked >= 10

    def test_true_and_false_circuits(self):
        universe = (x(2), x(1), x(3))
        b = CircuitBuilder(universe)
        true = b.finish(b.true())
        counted, roots = counting_transform(true, (x(1), x(3)))
        assert [model_count(reroot(counted, r)) for r in roots] == [2, 4, 2]
        k = knapsack_transform(true, {x(1): 2, x(2): 0, x(3): -1}, 0, 1)
        assert model_rows(k) == {(a, b1, c) for a in (0, 1) for b1 in (0, 1)
                                 for c in (0, 1) if 0 <= 2 * b1 - c <= 1}
        w = WeightFunction(universe, {(x(3), 1): 1, (x(2), 0): 1})
        opt = optimize(restrict_cardinality(true, CardinalitySpec((x(1), x(3)), {1})), w)
        assert opt.value == 2 and opt.witness == {x(1): 0, x(2): 0, x(3): 1}
        b = CircuitBuilder(universe)
        false = b.finish(b.false())
        counted, roots = counting_transform(false, universe)
        assert [model_count(reroot(counted, r)) for r in roots] == [0, 0, 0, 0]
        assert model_count(counted) == 0
        spec = CardinalitySpec(universe, {0, 1, 2, 3})
        assert optimize(restrict_cardinality(false, spec), w).value == NEG_INF
        assert optimize(knapsack_transform(false, {x(1): 1}, 0, 1), w).value == NEG_INF
        # constants below gates fold away: Or(true) is true, And(false, x) false
        b = CircuitBuilder(universe)
        dead = b.add_and((b.literal(x(3), True), b.false()))
        folded = b.finish(b.add_or((b.add_and((b.literal(x(1), True),
                                                b.add_or((b.true(),), None))),
                                     dead), SELECTOR))
        counted, roots = counting_transform(folded, universe)
        assert [model_count(reroot(counted, r)) for r in roots] == [0, 1, 2, 1]
        rng = random.Random(71)
        for c in (true, false, folded):
            for _ in range(10):
                check_transforms(rng, c)

    def test_restricted_circuit_fed_to_knapsack(self):
        inst = worked_example()
        c = compiled_worked()
        restricted = restrict_cardinality(c, CardinalitySpec(xvars(inst), {2, 3}))
        coeffs = dict(zip(xvars(inst), (1, 2, 2, 1, 1, -1)))
        both = knapsack_transform(restricted, coeffs, 3, 4)
        in_both = lambda m: (sum(m[v] for v in xvars(inst)) in (2, 3)
                             and 3 <= sum(cv * m[v] for v, cv in coeffs.items()) <= 4)
        w = weights_from_profits(inst)
        assert assert_constrained_optimum(both, c, w, in_both)
        assert model_rows(both) == {tuple(m[v] for v in c.variables)
                                    for m in enumerate_models(c) if in_both(m)}

    def test_enumerate_models_on_columnar_output(self):
        rng = random.Random(73)
        for c in circuit_corpus(rng, count=5):
            if len(c.variables) > 10:
                continue
            counted = c.variables[1::2]
            sums = {s for s in (1, 2) if s <= len(counted)}
            restricted = restrict_cardinality(c, CardinalitySpec(counted, sums))
            assert "nodes" not in restricted.__dict__   # written as columns
            got = enumerate_models(restricted)
            assert got == [m for m in enumerate_models(c)
                           if sum(m[v] for v in counted) in sums]
            assert model_count(restricted) == len(got)

    def test_size_guard_raises(self):
        inst = worked_example()
        c = compiled_worked()
        c.__dict__["edge_count"] = -10 ** 6    # understate the input's size
        with pytest.raises(RuntimeError, match="size bound"):
            counting_transform(c, xvars(inst))
        with pytest.raises(RuntimeError, match="size bound"):
            knapsack_transform(c, {v: 1 for v in xvars(inst)}, 0, 6)


PINNED_TRANSFORM_DIGEST = "d168ec3d32c3cc946d2b26158fefc0a562f848cec50373267a8708cdd3e2fd00"


def transform_texts(seed: int = 83):
    """Circuit text of the restricted, knapsack, counted and
    knapsack-after-restrict circuits (and the counted roots) of compiled
    acceptance-corpus and interval instances."""
    rng = random.Random(seed)
    instances = [corpus_instance(rng) for _ in range(150)]
    instances += [interval_instance(rng) for _ in range(12)]
    for inst in instances:
        c = compile_instance(inst)
        xs = xvars(inst)
        counted = tuple(rng.sample(xs, rng.randint(1, len(xs))))
        sums = rng.sample(range(len(counted) + 1), rng.randint(1, len(counted) + 1))
        coeffs = {v: rng.randint(-2, 3) for v in xs}
        lo = rng.randint(-2, 3)
        hi = lo + rng.randint(0, 4)
        restricted = restrict_cardinality(c, CardinalitySpec(counted, sums))
        counted_c, roots = counting_transform(c, counted)
        yield to_nnf_text(restricted)
        yield to_nnf_text(knapsack_transform(c, coeffs, lo, hi))
        yield to_nnf_text(counted_c) + repr(roots)
        yield to_nnf_text(knapsack_transform(restricted, coeffs, lo, hi + 1))


class TestTransformsPinned:
    def test_transform_circuits_pinned(self):
        # the transforms' output, node for node, as the columnar copy wrote
        # it before the copy moved onto the shared smooth fold
        digest = hashlib.sha256()
        for text in transform_texts():
            digest.update(text.encode())
        assert digest.hexdigest() == PINNED_TRANSFORM_DIGEST


class TestConstantOutputs:
    """TRUE and FALSE outputs over an empty and a one-variable universe,
    through every pass that evaluates a circuit as if it were smooth."""

    @staticmethod
    def constant(universe, value):
        b = CircuitBuilder(universe)
        return b.finish(b.true() if value else b.false())

    @staticmethod
    def weights(universe):
        return WeightFunction(universe, {(v, bit): 2 if bit else -1
                                         for v in universe for bit in (0, 1)})

    def test_model_count_and_enumeration(self):
        got = [(model_count(c), enumerate_models(c))
               for universe in ((), ("a",)) for value in (True, False)
               for c in [self.constant(universe, value)]]
        assert got == [(1, [{}]), (0, []), (2, [{"a": 0}, {"a": 1}]), (0, [])]

    def test_top_k(self):
        assert top_k(self.constant((), True), self.weights(()), 3) == [({}, 0)]
        assert top_k(self.constant((), False), self.weights(()), 3) == []
        assert top_k(self.constant(("a",), True), self.weights(("a",)), 3) == \
            [({"a": 1}, 2), ({"a": 0}, -1)]
        assert top_k(self.constant(("a",), False), self.weights(("a",)), 3) == []

    def test_normal_form(self):
        texts = [to_nnf_text(normalize_for_extform(self.constant(universe, value)))
                 for universe in ((), ("a",)) for value in (True, False)]
        assert texts == ["nnf 2 1 0\nA 0\nO 0 1 0\n", "nnf 1 0 0\nO 0 0\n",
                         "nnf 5 4 1\nL 1\nL -1\nO 1 2 0 1\nA 1 2\nO 0 1 3\n",
                         "nnf 1 0 1\nO 0 0\n"]

    def test_cardinality_and_knapsack(self):
        for universe, value, card, knap in (
                ((), True, 0, NEG_INF), ((), False, NEG_INF, NEG_INF),
                (("a",), True, -1, 2), (("a",), False, NEG_INF, NEG_INF)):
            c = self.constant(universe, value)
            w = self.weights(universe)
            restricted = restrict_cardinality(c, CardinalitySpec(universe, {0}))
            assert optimize(restricted, w).value == card
            constrained = knapsack_transform(c, dict.fromkeys(universe, 2), 1, 2)
            assert optimize(constrained, w).value == knap
        counted, roots = counting_transform(self.constant(("a",), True), ("a",))
        assert to_nnf_text(counted) == "nnf 3 2 1\nL 1\nL -1\nO 0 2 1 0\n"
        assert roots == (1, 0)
        counted, roots = counting_transform(self.constant((), False), ())
        assert to_nnf_text(counted) == "nnf 2 0 0\nO 0 0\nO 0 0\n"
        assert roots == (0,)

    def test_evaluate_and_optimize(self):
        got = []
        for universe in ((), ("a",)):
            for value in (True, False):
                c = self.constant(universe, value)
                opt = optimize(c, self.weights(universe))
                got.append(([evaluate(c, dict(zip(universe, bits)))
                             for bits in product((0, 1), repeat=len(universe))],
                            opt.value, opt.witness))
        assert got == [([True], 0, {}), ([False], NEG_INF, None),
                       ([True, True], 2, {"a": 1}), ([False, False], NEG_INF, None)]

    @staticmethod
    def embedded():
        """Empty gates inside circuits over (a, b), by their models.

        Under an And: Or_a(And(a, true), And(-a, false)), models a = 1.
        Under an Or: Or_a(And(a, Or#(false, b)), And(-a, Or#(true))),
        models a = 1, b = 1 and a = 0.
        """
        b = CircuitBuilder(("a", "b"))
        pa, na = b.literal("a", True), b.literal("a", False)
        under_and = b.finish(b.add_or((b.add_and((pa, b.true())),
                                       b.add_and((na, b.false()))), "a"))
        b = CircuitBuilder(("a", "b"))
        pa, na = b.literal("a", True), b.literal("a", False)
        yes = b.add_and((pa, b.add_or((b.false(), b.literal("b", True)), SELECTOR)))
        no = b.add_and((na, b.add_or((b.true(),), SELECTOR)))
        under_or = b.finish(b.add_or((yes, no), "a"))
        return [(under_and, {(1, 0), (1, 1)}), (under_or, {(1, 1), (0, 0), (0, 1)})]

    def test_empty_gates_inside_circuits(self):
        w = WeightFunction(("a", "b"), {("a", 1): 3, ("a", 0): 1, ("b", 1): -2,
                                        ("b", 0): Fraction(1, 2)})
        rng = random.Random(5)
        for c, rows in self.embedded():
            points = [dict(zip(c.variables, bits)) for bits in product((0, 1), repeat=2)]
            assert {tuple(m.values()) for m in points if evaluate(c, m)} == rows
            assert model_count(c) == len(rows)
            assert model_rows(c) == rows
            values = sorted((w.value_of(m) for m in points if tuple(m.values()) in rows),
                            reverse=True)
            opt = optimize(c, w)
            assert opt.value == values[0] and w.value_of(opt.witness) == opt.value
            assert evaluate(c, opt.witness)
            best = top_k(c, w, 5)
            assert [v for _, v in best] == values
            assert {tuple(m.values()) for m, _ in best} == rows
            normal = normalize_for_extform(c)
            check_normalized(normal)
            assert model_rows(normal) == rows
            assert model_rows(smooth_binary_form(c)) == rows
            assert len(enumerate_certificates(normal)) == len(rows)
            assert dual_optimize(*weight_edge_costs(normal, w))[0] == opt.value
            build_system(normal)
            text = to_nnf_text(c)
            again = from_nnf_text(text, c.variables)
            assert to_nnf_text(again) == text
            assert all(evaluate(again, m) == evaluate(c, m) for m in points)
            for _ in range(5):
                check_transforms(rng, c)
