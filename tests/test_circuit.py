import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (FIG_DDNNF_ROWS, all_assignments, circuit_corpus, corpus_instance,
                    fig_ddnnf, random_formula, random_instance, reachable,
                    sat_assignments, variable_sets, worked_example)
from families import intervals
from nnfopt import (CapExceeded, CircuitBuilder, CnfFormula, check_structure,
                    compile_formula, encode_basic, enumerate_models, evaluate,
                    from_nnf_text, model_count, normalize_for_extform, reroot,
                    smooth_binary_form, to_nnf_text)
from nnfopt import (CnfVariable, CompileConfig, NnfCircuit, compile_instance,
                    counting_transform, gen_labs, knapsack_transform, optimize,
                    parse_instance, restrict_cardinality, weights_from_profits)
from nnfopt.circuit import AND, LIT, OR, SELECTOR, check_normalized
from nnfopt.maxplus import WeightFunction
from nnfopt.transforms import CardinalitySpec
from record_kids_reference import record_kids_reference
from structure_reference import check_structure_reference


def rows_of(c):
    return {tuple(m[v] for v in c.variables) for m in enumerate_models(c, cap=10000)}


def overlapping_and():
    """And(x, -x) over (x,): not decomposable."""
    b = CircuitBuilder(("x",))
    return b.finish(b.add_and((b.literal("x", True), b.literal("x", False))))


def single_node(kind, variables=()):
    b = CircuitBuilder(variables)
    nid = b.true() if kind == "T" else b.false()
    return b.finish(nid)


class TestEvaluate:
    def test_figure_rows(self):
        c = fig_ddnnf()
        assert evaluate(c, {"x": 0, "y": 1, "z": 1}) is True
        assert evaluate(c, {"x": 0, "y": 0, "z": 0}) is False
        got = {bits for bits in rows_of(c)}
        assert got == set(FIG_DDNNF_ROWS)

    def test_const_true(self):
        c = single_node("T", ("x",))
        assert evaluate(c, {"x": 0}) and evaluate(c, {"x": 1})

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError, match="misses"):
            evaluate(fig_ddnnf(), {"x": 0, "y": 1})

    def test_evaluate_matches_enumeration(self):
        rng = random.Random(11)
        for c in circuit_corpus(rng, count=6):
            if len(c.variables) > 12:
                continue
            models = rows_of(c)
            import itertools
            for bits in itertools.product((0, 1), repeat=len(c.variables)):
                a = dict(zip(c.variables, bits))
                assert evaluate(c, a) == (bits in models)


class TestCheckStructure:
    def test_figure_circuit(self):
        rep = check_structure(fig_ddnnf())
        assert rep.decomposable and rep.deterministic and rep.smooth

    def test_undecided_or_not_deterministic(self):
        b = CircuitBuilder(("x",))
        t1, t2 = b.true(), b.literal("x", True)
        out = b.add_or((t1, t2), None)
        rep = check_structure(b.finish(out))
        assert not rep.deterministic

    def test_overlapping_and_not_decomposable(self):
        b = CircuitBuilder(("x",))
        p = b.literal("x", True)
        out = b.add_and((p, b.add_or((p,), None)))
        assert not check_structure(b.finish(out)).decomposable

    def test_decision_with_agreeing_children_rejected(self):
        b = CircuitBuilder(("x", "y"))
        c1 = b.add_and((b.literal("x", True), b.literal("y", True)))
        c2 = b.add_and((b.literal("x", True), b.literal("y", False)))
        out = b.add_or((c1, c2), "x")
        assert not check_structure(b.finish(out)).deterministic

    @pytest.mark.parametrize("marker, deterministic", [(SELECTOR, True), (None, False),
                                                      ("x", False)])
    def test_selector_is_trusted(self, marker, deterministic):
        # x and y share the model x = y = 1: only SELECTOR's trust passes it
        b = CircuitBuilder(("x", "y"))
        out = b.add_or((b.literal("x", True), b.literal("y", True)), marker)
        c = b.finish(out)
        assert check_structure(c).deterministic == deterministic
        # the text format writes SELECTOR as 0, like no marker
        assert to_nnf_text(c).splitlines()[-1] == f"O {1 if marker == 'x' else 0} 2 0 1"

    @pytest.mark.parametrize("marker", [5, -2])
    def test_marker_outside_the_universe_refused(self, marker):
        # the raw constructor takes any int marker; over two variables only
        # bit positions 0 and 1 decide, and every pass and the text writer
        # refuse the rest
        c = NnfCircuit(("x", "y"), ("x", "y"),
                       ([LIT, LIT, OR], [(), (), (0, 1)], [1, 2, marker], [0, 0, 0]), 2)
        message = f"Or marker {marker} is not a bit position of the 2 variables"
        w = WeightFunction(c.variables, {})
        for query in (check_structure, lambda c: optimize(c, w), model_count, to_nnf_text):
            with pytest.raises(ValueError, match=re.escape(message)):
                query(c)

    def test_builder_marks_a_decision_by_its_bit(self):
        b = CircuitBuilder(("x", "y"))
        out = b.add_or((b.literal("y", True), b.literal("y", False)), "y")
        assert b.finish(out).columns[2][out] == 1
        with pytest.raises(ValueError, match="undeclared variable z"):
            b.add_or((b.literal("y", True),), "z")


class TestNormalizeForExtform:
    def test_non_decomposable_circuit_refused(self):
        with pytest.raises(ValueError, match="normalization requires a decomposable circuit"):
            normalize_for_extform(overlapping_and())

    def test_literal_output_wrapped(self):
        b = CircuitBuilder(("x",))
        c = b.finish(b.literal("x", True))
        n = normalize_for_extform(c)
        assert n.columns[0][n.output] == OR
        check_normalized(n)
        assert rows_of(n) == rows_of(c)

    def test_duplicate_literals_merged(self):
        # the positive literal of x on two nodes, one under each branch
        c = from_nnf_text("nnf 7 6 2\nL 1\nL 1\nL 2\nA 2 0 2\nL -2\nA 2 1 4\nO 2 2 3 5\n",
                          ("x", "y"))
        n = normalize_for_extform(c)
        check_normalized(n)
        kinds, _, pos, neg = n.columns
        lits = [(a, b) for kind, a, b in zip(kinds, pos, neg) if kind == LIT]
        assert len(lits) == len(set(lits)) == 3
        assert rows_of(n) == rows_of(c)

    def test_dead_nodes_pruned(self):
        b = CircuitBuilder(("x",))
        b.add_and((b.literal("x", False),))  # never referenced
        out = b.add_or((b.literal("x", True),), None)
        n = normalize_for_extform(b.finish(out))
        check_normalized(n)
        assert len(reachable(n)) == n.node_count
        assert rows_of(n) == {(1,)}

    def test_unsat_becomes_childless_or(self):
        c = single_node("F", ("x",))
        n = normalize_for_extform(c)
        assert [col[n.output] for col in n.columns] == [OR, (), None, 0]
        assert rows_of(n) == set()

    def test_corpus_roundtrip(self):
        rng = random.Random(21)
        for c in circuit_corpus(rng, count=6):
            n = normalize_for_extform(c)
            check_normalized(n)
            assert rows_of(n) == rows_of(c)

    def test_idempotent_on_figure(self):
        n1 = normalize_for_extform(fig_ddnnf())
        n2 = normalize_for_extform(n1)
        check_normalized(n1)
        assert rows_of(n1) == rows_of(fig_ddnnf())
        assert n1.columns[0] == n2.columns[0]

    def test_or_with_true_child(self):
        b = CircuitBuilder(("x",))
        c = b.finish(b.add_or((b.literal("x", True), b.true()), None))
        n = normalize_for_extform(c)
        check_normalized(n)
        assert rows_of(n) == rows_of(c) == {(0,), (1,)}

    def test_smooths_uneven_or(self):
        b = CircuitBuilder(("x", "y"))
        out = b.add_or((b.literal("x", True),
                        b.add_and((b.literal("x", False), b.literal("y", True)))), "x")
        c = b.finish(out)
        n = normalize_for_extform(c)
        rep = check_structure(n)
        assert rep.smooth and rep.decomposable and rep.deterministic
        assert rows_of(n) == rows_of(c)

    def test_free_output_variables_padded(self):
        b = CircuitBuilder(("x", "y"))
        c = b.finish(b.literal("x", True))
        n = normalize_for_extform(c)
        assert variable_sets(n)[n.output] == frozenset(("x", "y"))
        assert rows_of(n) == rows_of(c)

    def test_size_bound(self):
        rng = random.Random(3)
        for c in circuit_corpus(rng, count=6):
            n = normalize_for_extform(c)
            assert n.edge_count <= max(1, c.edge_count) * (1 + len(c.variables)) + \
                3 * len(c.variables)


# nodes over (x, y) as column rows: (kind, kids, pos, neg)
X, NX, Y, NY = (LIT, (), 1, 0), (LIT, (), 0, 1), (LIT, (), 2, 0), (LIT, (), 0, 2)


class TestCheckNormalized:
    # one hand-built circuit per rule: nodes, output, message
    @pytest.mark.parametrize("nodes, output, message", [
        ([X], 0, "output must be an Or node"),
        ([X, (OR, (0,), None, 0), (AND, (1,), 0, 0)], 1, "output must have no outgoing edges"),
        ([X, NX, (OR, (0,), None, 0)], 2, "every node must lie on a path to the output"),
        ([X, X, Y, NY, (AND, (0, 2), 0, 0), (AND, (1, 3), 0, 0), (OR, (4, 5), 1, 0)], 6,
         "each literal may label at most one input"),
        ([(OR, (), None, 0), X, (OR, (0, 1), None, 0)], 2, "false nodes must be folded away"),
        ([X, (OR, (0,), None, 0), (AND, (0, 1), 0, 0), (OR, (2,), None, 0)], 3,
         "circuit must be decomposable"),
        ([X, NX, Y, (AND, (1, 2), 0, 0), (OR, (0, 3), 0, 0)], 4, "circuit must be smooth"),
    ])
    def test_rule(self, nodes, output, message):
        columns = tuple(list(col) for col in zip(*nodes))
        c = NnfCircuit(("x", "y"), ("x", "y"), columns, output)
        for _ in range(2):  # the second call reads the kept verdict
            with pytest.raises(ValueError, match=message):
                check_normalized(c)
        if message.endswith("smooth"):
            check_normalized(c, require_smooth=False)


class TestSmoothBinaryForm:
    def test_contract_on_corpus(self):
        rng = random.Random(8)
        for c in circuit_corpus(rng, count=6):
            s = smooth_binary_form(c)
            assert all(len(ks) <= 2 for kind, ks in zip(s.columns[0], s.record_kids)
                       if kind == AND)
            rep = check_structure(s)
            assert rep.smooth and rep.decomposable and rep.deterministic
            rows = rows_of(c)
            assert rows_of(s) == rows
            if rows:    # an unsatisfiable circuit mentions no variable
                assert variable_sets(s)[s.output] == frozenset(c.variables)

    def test_ternary_and(self):
        b = CircuitBuilder(("x", "y", "z"))
        c = b.finish(b.add_and((b.literal("x", True), b.literal("y", True),
                                b.literal("z", True))))
        s = smooth_binary_form(c)
        assert all(len(ks) <= 2 for kind, ks in zip(s.columns[0], s.record_kids)
                   if kind == AND)
        assert rows_of(s) == rows_of(c) == {(1, 1, 1)}
        assert s.edge_count <= 2 * c.edge_count

    def test_unary_and_kept(self):
        b = CircuitBuilder(("x",))
        c = b.finish(b.add_and((b.literal("x", True),)))
        assert rows_of(smooth_binary_form(c)) == rows_of(c) == {(1,)}


class TestCounting:
    def test_figure_count(self):
        assert model_count(fig_ddnnf()) == 5

    def test_const_false(self):
        assert model_count(single_node("F")) == 0

    def test_compiled_worked_example(self):
        c = compile_formula(encode_basic(worked_example()))
        assert model_count(c) == 64

    def test_count_matches_enumeration(self):
        rng = random.Random(17)
        for c in circuit_corpus(rng, count=6):
            assert model_count(c) == len(enumerate_models(c, cap=100000))


class TestEnumeration:
    def test_figure_rows(self):
        models = enumerate_models(fig_ddnnf(), cap=10)
        assert [tuple(m[v] for v in ("x", "y", "z")) for m in models] == \
            sorted(FIG_DDNNF_ROWS)

    def test_const_false_empty(self):
        assert enumerate_models(single_node("F", ("x",)), cap=10) == []

    def test_free_variable_expansion(self):
        b = CircuitBuilder(("x",))
        c = b.finish(b.add_or((b.literal("x", True), b.literal("x", False)), "x"))
        assert len(enumerate_models(c, cap=10)) == 2

    def test_cap_exceeded(self):
        c = single_node("T", tuple(f"v{i}" for i in range(8)))
        with pytest.raises(CapExceeded):
            enumerate_models(c, cap=100)

    def test_cap_checked_at_each_or_and_product(self):
        # Or(x, -x) holds 2 models; And(Or(x, -x), Or(y, -y), false) has
        # none, but its partial product reaches 4 before the false child
        b = CircuitBuilder(("x",))
        c = b.finish(b.add_or((b.literal("x", True), b.literal("x", False)), "x"))
        with pytest.raises(CapExceeded, match="model cap exceeded"):
            enumerate_models(c, cap=1)
        b = CircuitBuilder(("x", "y"))
        ors = [b.add_or((b.literal(v, True), b.literal(v, False)), v) for v in ("x", "y")]
        dead = b.finish(b.add_and((*ors, b.false())))
        with pytest.raises(CapExceeded, match="model cap exceeded"):
            enumerate_models(dead, cap=3)
        assert enumerate_models(dead, cap=4) == []

    def test_non_decomposable_circuit_refused(self):
        with pytest.raises(ValueError, match="model enumeration needs a decomposable circuit"):
            enumerate_models(overlapping_and())


class TestReroot:
    def test_reroot_counts_subfunctions(self):
        c = fig_ddnnf()
        or_nodes = [i for i, kind in enumerate(c.columns[0]) if kind == OR]
        sub = reroot(c, or_nodes[0])
        assert model_count(sub) >= 1
        assert set(sub.variables) == set(c.variables)


class TestNnfText:
    def test_figure_roundtrip_bytes(self):
        c = fig_ddnnf()
        text = to_nnf_text(c)
        again = to_nnf_text(from_nnf_text(text, c.variables))
        assert text == again
        header = text.splitlines()[0].split()
        assert header == ["nnf", str(c.node_count), str(c.edge_count), "3"]

    def test_parse_preserves_models(self):
        rng = random.Random(4)
        for c in circuit_corpus(rng, count=5):
            back = from_nnf_text(to_nnf_text(c), c.variables)
            assert rows_of(back) == rows_of(c)

    def test_constants_parse(self):
        c = from_nnf_text("nnf 2 0 1\nA 0\nO 0 0\n")
        assert c.columns[0] == [AND, OR]
        assert to_nnf_text(c) == "nnf 2 0 1\nA 0\nO 0 0\n"

    def test_marked_empty_or_parses_false(self):
        # an empty Or is false whatever its marker, and keeps the marker
        text = "nnf 1 0 1\nO 1 0\n"
        c = from_nnf_text(text)
        assert c.columns == ([OR], [()], [0], [0])
        assert not evaluate(c, {1: 0}) and not evaluate(c, {1: 1})
        assert model_count(c) == 0
        assert to_nnf_text(c) == text

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            from_nnf_text("cnf 1 0 1\n")

    def test_header_universe_bounded_by_text_length(self):
        # each declared variable costs at most one byte of text, so a
        # short text cannot make the parser build a huge universe
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more variables than the text"):
                from_nnf_text("nnf 1 0 2000000\nA 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert len(from_nnf_text("nnf 1 0 13\nA 0\n").variables) == 13

    def test_foreign_or_without_decision_marked_nondeterministic(self):
        text = "nnf 3 2 1\nL 1\nL -1\nO 0 2 0 1\n"
        c = from_nnf_text(text)
        rep = check_structure(c)
        assert rep.decomposable and not rep.deterministic
        with pytest.raises(ValueError):
            model_count(c)

    def test_repeated_nodes_parse_node_for_node(self):
        text = ("nnf 9 7 1\nL 1\nL 1\nA 0\nA 0\nO 0 0\nO 0 0\n"
                "A 2 0 2\nA 2 1 3\nO 0 3 6 7 5\n")
        c = from_nnf_text(text)
        assert c.columns[0] == [LIT, LIT, AND, AND, OR, OR, AND, AND, OR]
        assert c.record_kids[6:] == ((0, 2), (1, 3), (6, 7, 5))
        assert to_nnf_text(c) == text


class TestConstructorRules:
    # each rule the builder and the text parser enforce, by its message
    @pytest.mark.parametrize("variables, output, message", [
        (("x", "x"), lambda b: b.true(), "duplicate variables in universe"),
        (("x",), lambda b: b.literal("z", True), "literal over undeclared variable z"),
        (("x",), lambda b: b.add_and((b.literal("x", True), 1)), "children must precede"),
        (("x",), lambda b: b.add_and((-1,)), "children must precede their parent"),
        (("x",), lambda b: b.literal("x", True) + 1, "output id out of range"),
        (("x",), lambda b: b.literal("x", True) - 1, "output id out of range"),
    ])
    def test_builder(self, variables, output, message):
        with pytest.raises(ValueError, match=message):
            b = CircuitBuilder(variables)
            b.finish(output(b))

    @pytest.mark.parametrize("text, variables, message", [
        ("nnf 1 0 2\nA 0\n", ("x", "x"), "duplicate variables in universe"),
        ("nnf 1 0 1\nL 2\n", None, "literal 2 out of range"),
        ("nnf 2 2 1\nL 1\nA 2 0 1\n", None, "children must precede their parent"),
        ("nnf 2 1 1\nL 1\nO 1 1 -1\n", None, "children must precede their parent"),
        ("nnf 0 0 1\n", None, "output id out of range"),
        ("nnf 1 0\nA 0\n", None, "malformed nnf header"),
        ("nnf 1 0 1\nA 2 0\n", None, "bad And line"),
        ("nnf 2 3 1\nL 1\nA 1 0\n", None, "edge count disagrees with header"),
    ])
    def test_text(self, text, variables, message):
        with pytest.raises(ValueError, match=message):
            from_nnf_text(text, variables)

    @pytest.mark.parametrize("bit_variables", [("x", "z"), ("x",), ("x", "y", "y")])
    def test_bit_variables_permute_the_universe(self, bit_variables):
        with pytest.raises(ValueError, match="bit variables must be a permutation"):
            NnfCircuit(("x", "y"), bit_variables, ([AND], [()], [0], [0]), 0)


NNF_TAGS = ["L", "A", "O", "X", "c", "nnf"]
small = st.integers(-3, 7)
ids = st.lists(small, max_size=3)
nnf_lines = st.one_of(
    st.lists(st.one_of(st.sampled_from(NNF_TAGS), small.map(str)), max_size=6).map(" ".join),
    small.map("L {}".format),
    ids.map(lambda ks: " ".join(map(str, ["A", len(ks), *ks]))),
    st.tuples(small, ids).map(lambda t: " ".join(map(str, ["O", t[0], len(t[1]), *t[1]]))))
nnf_text = st.one_of(
    st.tuples(st.tuples(*[st.integers(-1, 6)] * 3), st.lists(nnf_lines, max_size=6)).map(
        lambda t: "\n".join(["nnf %d %d %d" % t[0]] + t[1])),
    st.text(max_size=40))


class TestNnfTextFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nnf_text)
    def test_malformed_text_raises_only_value_errors(self, text):
        try:
            c = from_nnf_text(text)
        except ValueError:
            return
        canonical = to_nnf_text(c)
        assert to_nnf_text(from_nnf_text(canonical)) == canonical

    def test_decision_index_out_of_range_rejected(self):
        for d in (3, 5, -1):
            with pytest.raises(ValueError, match="decision"):
                from_nnf_text(f"nnf 3 2 2\nL 1\nL 2\nO {d} 2 0 1\n")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_round_trip_is_identity(self, seed):
        for c in circuit_corpus(random.Random(seed), count=2):
            text = to_nnf_text(c)
            assert to_nnf_text(from_nnf_text(text, c.variables)) == text


class TestLiteralBlocks:
    def test_compiled_circuit_equals_its_record_view(self):
        # the compiler writes literal blocks; the circuit read back from its
        # text, where each block is written as edges, must answer every
        # query alike
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng, max_v=5, max_e=5, max_deg=3)
            c = compile_formula(encode_basic(inst))
            flat = from_nnf_text(to_nnf_text(c), c.variables)
            assert c.edge_count == flat.edge_count == sum(map(len, c.record_kids))
            assert check_structure(c) == check_structure(flat)
            w = weights_from_profits(inst)
            assert optimize(c, w) == optimize(flat, w)
            for a in all_assignments(c.variables):
                assert evaluate(c, a) == evaluate(flat, a)

    def block_circuit(self, columns, output):
        return NnfCircuit(("a", "b"), ("a", "b"), columns, output)

    def test_block_with_both_signs_is_not_decomposable(self):
        c = self.block_circuit(([LIT, LIT, AND], [(), (), ()], [1, 0, 1], [0, 1, 1]), 2)
        assert not check_structure(c).decomposable
        assert c.record_kids[2] == (0, 1)

    def test_block_overlapping_its_child_is_not_decomposable(self):
        # And(block {a}, child And(block {a, b}))
        c = self.block_circuit(([LIT, LIT, AND, AND], [(), (), (), (2,)],
                                [1, 2, 3, 1], [0, 0, 0, 0]), 3)
        assert not check_structure(c).decomposable

    def test_decision_must_split_on_its_variable(self):
        # Or on a over two blocks that both set a: not deterministic
        both = self.block_circuit(([LIT, LIT, AND, AND, OR], [(), (), (), (), (2, 3)],
                                   [1, 2, 3, 1, 0], [0, 0, 0, 2, 0]), 4)
        assert not check_structure(both).deterministic
        split = self.block_circuit(([LIT, LIT, LIT, AND, AND, OR],
                                    [(), (), (), (), (), (3, 4)],
                                    [1, 2, 0, 3, 2, 0], [0, 0, 1, 0, 1, 0]), 5)
        rep = check_structure(split)
        assert rep.decomposable and rep.deterministic and rep.smooth
        assert evaluate(split, {"a": 0, "b": 1}) and not evaluate(split, {"a": 0, "b": 0})


class TestRecordKidsReference:
    # the per-bit tables expand every block as the frozen reference does

    def same(self, c):
        assert c.record_kids == record_kids_reference(c)

    def test_corpus_circuits(self):
        for c in circuit_corpus(random.Random(90), count=40):
            self.same(c)
            self.same(from_nnf_text(to_nnf_text(c), c.variables))

    def test_compiled_circuits_with_shuffled_hints(self):
        rng = random.Random(91)
        formulas = [encode_basic(random_instance(rng, max_v=8, max_e=8, max_deg=3))
                    for _ in range(30)]
        formulas.append(encode_basic(parse_instance(gen_labs(8, 3)).instance))
        permuted = 0
        for f in formulas:
            hint = list(f.variables)
            rng.shuffle(hint)
            c = compile_formula(f, CompileConfig(order_hint=hint))
            permuted += c.bit_variables != c.variables
            self.same(c)
            self.same(normalize_for_extform(c))
        assert permuted >= 25

    def test_normal_forms_and_transforms(self):
        rng = random.Random(92)
        for _ in range(20):
            inst = random_instance(rng, max_v=6, max_e=6, max_deg=3)
            c = compile_instance(inst)
            x = tuple(CnfVariable("x", v) for v in inst.hypergraph.vertices)
            sums = frozenset(rng.sample(range(len(x) + 1), rng.randint(1, len(x) + 1)))
            coeffs = {v: rng.randint(-2, 3) for v in x}
            self.same(counting_transform(c, x)[0])
            for t in (c, restrict_cardinality(c, CardinalitySpec(x, sums)),
                      knapsack_transform(c, coeffs, -1, 2)):
                for form in (t, normalize_for_extform(t), smooth_binary_form(t)):
                    self.same(form)

    @pytest.mark.parametrize("pos, neg, expected", [
        ([0, 2, 1, 3], [2, 0, 0, 2], (0, 1, 2)),    # ~a made before a
        ([2, 0, 1, 3], [0, 2, 0, 2], (0, 1, 2)),    # a made before ~a
    ])
    def test_clash_block_orders_both_literals_by_node(self, pos, neg, expected):
        # bit 0 is b and bit 1 is a; the block holds a, ~a and b
        c = NnfCircuit(("a", "b"), ("b", "a"),
                       ([LIT, LIT, LIT, AND], [(), (), (), ()], pos, neg), 3)
        assert c.record_kids[3] == record_kids_reference(c)[3] == expected

    def test_first_literal_node_wins(self):
        # nodes 1 and 3 are both a; the block {a, b} and its child read node 1
        c = NnfCircuit(("a", "b"), ("a", "b"),
                       ([LIT, LIT, LIT, LIT, AND], [(), (), (), (), (3,)],
                        [0, 1, 2, 1, 3], [1, 0, 0, 0, 0]), 4)
        assert c.record_kids[4] == record_kids_reference(c)[4] == (1, 2, 3)

    def test_block_literal_without_a_node_is_refused(self):
        c = NnfCircuit(("a", "b"), ("a", "b"), ([LIT, AND], [(), ()], [1, 3], [0, 0]), 1)
        with pytest.raises(ValueError, match="And node 1 holds a literal that has no literal node"):
            c.record_kids


def structure_or_error(check, c):
    # each check caches its report on the circuit, so clear it around the call
    c.__dict__.pop("_structure", None)
    try:
        return check(c)
    except ValueError as e:
        return f"ValueError: {e}"
    finally:
        c.__dict__.pop("_structure", None)


def random_rule_breaker(rng):
    """A hand-written circuit over 1-4 variables that may break any rule
    check_structure judges: clash blocks, overlapping or repeated And
    children, Ors marked None, SELECTOR, a bit its children may not fix or
    one outside the universe, with one to three children, repeated ones,
    non-smooth ones, empty gates, and nodes after the output."""
    n = rng.randint(1, 4)
    names = tuple(f"v{i}" for i in range(n))
    bits = list(names)
    rng.shuffle(bits)
    kinds, kids, pos, neg = [], [], [], []

    def add(kind, ks, a, b):
        kinds.append(kind)
        kids.append(tuple(ks))
        pos.append(a)
        neg.append(b)
        return len(kinds) - 1

    lits = [[add(LIT, (), 1 << i, 0), add(LIT, (), 0, 1 << i)] for i in range(n)]
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        made = len(kinds)
        if roll < 0.35:
            # a decision Or: x and ~x, each under an And with a random
            # sibling on either side
            i = rng.randrange(n)
            branches = [add(AND, rng.sample((lits[i][s], rng.randrange(made)), 2), 0, 0)
                        for s in (0, 1)]
            rng.shuffle(branches)
            marker = rng.choice([i] * 6 + [None, SELECTOR, rng.randrange(n)])
            add(OR, branches, marker, 0)
        elif roll < 0.65:
            ks = [rng.randrange(made) for _ in range(rng.randint(0, 3))]
            add(AND, ks, rng.randrange(1 << n), rng.randrange(1 << n) if rng.random() < 0.3 else 0)
        else:
            ks = [rng.randrange(made) for _ in range(rng.randint(0, 3))]
            marker = rng.choice([None, SELECTOR, rng.randrange(n), rng.randrange(n)])
            if rng.random() < 0.03:
                marker = rng.choice([n, -2, 7])
            add(OR, ks, marker, 0)
    output = len(kinds) - 1 - (rng.randrange(3) if rng.random() < 0.2 else 0)
    return NnfCircuit(names, bits, (kinds, kids, pos, neg), max(output, 0))


class TestStructureReference:
    # the lean pass reports what the frozen reference does, or raises its error

    def same(self, c):
        got = structure_or_error(check_structure, c)
        assert got == structure_or_error(check_structure_reference, c)
        return got

    def test_corpus_circuits_and_their_forms(self):
        rng = random.Random(20250809)
        for _ in range(500):
            inst = corpus_instance(rng)
            c = compile_instance(inst)
            x = tuple(CnfVariable("x", v) for v in inst.hypergraph.vertices)
            sums = frozenset(rng.sample(range(len(x) + 1), rng.randint(1, len(x) + 1)))
            coeffs = {v: rng.randint(-3, 3) for v in x}
            for form in (c, restrict_cardinality(c, CardinalitySpec(x, sums)),
                         knapsack_transform(c, coeffs, -1, 2), counting_transform(c, x)[0],
                         normalize_for_extform(c)):
                assert self.same(form).decomposable

    def test_compiled_labs_and_intervals(self):
        insts = [parse_instance(gen_labs(n, 3)).instance for n in range(8, 13)]
        insts += [intervals(n, s) for n in (6, 40, 160) for s in range(3)]
        for inst in insts:
            rep = self.same(compile_instance(inst))
            assert rep.decomposable and rep.deterministic

    def test_random_rule_breakers(self):
        rng = random.Random(22)
        seen = set()
        for _ in range(600):
            rep = self.same(random_rule_breaker(rng))
            seen.add(rep if isinstance(rep, str) else
                     (rep.decomposable, rep.deterministic, rep.smooth))
        # every verdict of each rule shows up, and the bad markers are refused
        assert {(d, e, s) for d in (True, False) for e in (True, False)
                for s in (True, False)} <= seen
        assert any(isinstance(r, str) for r in seen)

    def test_memory_peak_within_the_reference(self):
        # a child's masks are freed after its last parent: a pass that
        # keeps them all reads about 4x the reference's peak here
        c = compile_instance(parse_instance(gen_labs(14, 3)).instance)
        peaks = []
        for check in (check_structure_reference, check_structure):
            c.__dict__.pop("_structure", None)
            tracemalloc.start()
            try:
                check(c)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
