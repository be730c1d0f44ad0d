import gc
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from corpus import (circuit_corpus, corpus_instance, fig_ddnnf, multilinear_set,
                    worked_example)
from extform_reference import dual_optimize_reference
from nnfopt import (CapExceeded, CircuitBuilder, LinearSystem, Row, build_system,
                    certificate_point, certificate_tree_cost, compile_formula,
                    compile_instance, dual_optimize, encode_basic,
                    enumerate_certificates, enumerate_models, from_nnf_text,
                    gen_labs, knapsack_transform, normalize_for_extform, optimize,
                    parse_instance, restrict_cardinality, to_lp_text, tu_counterexample_check, validate_certificate,
                    weight_edge_costs, weights_from_profits)
from nnfopt.cnf import CnfVariable, instance_variables
from nnfopt.extform import _determinant, _lp_number, non_tu_witness_circuit
from nnfopt.maxplus import WeightFunction
from nnfopt.transforms import CardinalitySpec


def normalized_corpus(rng, count=5):
    return [normalize_for_extform(c) for c in circuit_corpus(rng, count=count)]


class TestBuildSystem:
    def test_not_tu_system_rows(self):
        c = non_tu_witness_circuit()
        system = build_system(c, include_x=False)
        eq_rows = {frozenset(r.coeffs) for r in system.rows if r.relation == "="}
        y = {1: 8, 2: 6, 3: 5, 4: 7, 5: 3, 6: 9, 7: 4, 8: 0, 9: 1, 10: 2}

        expected = [
            [(1, 1), (6, 1)],
            [(2, 1), (4, 1), (1, -1)],
            [(3, 1), (2, -1)],
            [(5, 1), (3, -1)],
            [(7, 1), (3, -1)],
            [(8, 1), (4, -1), (5, -1)],
            [(9, 1), (6, -1), (7, -1)],
            [(10, 1), (6, -1), (7, -1)],
        ]
        want = {frozenset((("y", y[i]), k) for i, k in spec) for spec in expected}
        assert eq_rows == want
        nonneg = [r for r in system.rows if r.relation == ">="]
        assert len(nonneg) == 10

    def test_determinant_is_two(self):
        assert tu_counterexample_check() == 2

    def test_identity_control(self):
        ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
        assert _determinant(ident) == 1

    def test_singular_determinant_is_zero(self):
        assert _determinant([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0

    def test_fractional_determinant_raises(self, monkeypatch):
        import nnfopt.extform as ef
        monkeypatch.setattr(ef, "_determinant", lambda matrix: Fraction(5, 2))
        with pytest.raises(RuntimeError, match="determinant"):
            tu_counterexample_check()

    def test_checks_run_under_optimized_bytecode(self):
        # python -O strips assert statements; these checks must not be asserts
        script = (
            "from fractions import Fraction\n"
            "import nnfopt.extform as ef\n"
            "from nnfopt import (compile_formula, encode_basic, parse_instance, top_k,\n"
            "                    weights_from_profits)\n"
            "print('det', ef.tu_counterexample_check())\n"
            "inst = parse_instance('-3 v1 v2 v3\\n4 v4 v5\\n5 v2 v3 v4 v5 v6\\n').instance\n"
            "c = compile_formula(encode_basic(inst))\n"
            "print('top', *(v for _, v in top_k(c, weights_from_profits(inst), 3)))\n"
            "ef._determinant = lambda matrix: Fraction(5, 2)\n"
            "try:\n"
            "    ef.tu_counterexample_check()\n"
            "except RuntimeError as exc:\n"
            "    print('raised', exc)\n"
            "from nnfopt import counting_transform\n"
            "from nnfopt.cnf import CnfVariable\n"
            "c.__dict__['edge_count'] = -10 ** 6  # understate the input's size\n"
            "try:\n"
            "    counting_transform(c, [CnfVariable('x', v) for v in range(1, 7)])\n"
            "except RuntimeError as exc:\n"
            "    print('raised', exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "det 2", "top 9 6 4",
            "raised determinant of an integer matrix came out as 5/2",
            "raised transform exceeded its size bound"]

    def test_coefficients_stay_unit(self):
        rng = random.Random(6)
        for c in normalized_corpus(rng):
            system = build_system(c, include_x=True)
            for row in system.rows:
                assert all(k in (-1, 1) for _, k in row.coeffs)

    def test_row_count_bound(self):
        rng = random.Random(61)
        for c in normalized_corpus(rng):
            system = build_system(c, include_x=True)
            n_or = c.columns[0].count("O")
            and_fanin = sum(len(ks) for kind, ks in zip(c.columns[0], c.record_kids)
                            if kind == "A")
            bound = 2 + (n_or - 1) + and_fanin + c.edge_count + len(c.variables)
            assert len(system.rows) <= bound

    def test_single_literal_circuit(self):
        b = CircuitBuilder(("a",))
        c = b.finish(b.add_or((b.literal("a", True),), None))
        system = build_system(c, include_x=True)
        out = system.row_by_tag(("out",))
        assert dict(out.coeffs) == {("y", 0): 1} and out.rhs == 1
        with pytest.raises(KeyError):
            system.row_by_tag(("proj", "b"))

    def test_unnormalized_rejected(self):
        b = CircuitBuilder(("a",))
        c = b.finish(b.literal("a", True))
        with pytest.raises(ValueError, match="Or node"):
            build_system(c)

    def test_rows_view(self):
        c = normalize_for_extform(fig_ddnnf())
        system = build_system(c, include_x=True)
        rows = list(system.rows)
        assert len(system.rows) == len(rows) and all(isinstance(r, Row) for r in rows)
        assert system.rows[0] == rows[0] and rows[0].tag == ("out",)
        assert system.rows[-1] == rows[-1] and rows[-1].tag[0] == "proj"
        assert system.rows[2:5] == tuple(rows[2:5])
        with pytest.raises(IndexError):
            system.rows[len(rows)]
        assert {r.relation for r in rows if r.tag[0] == "nonneg"} == {">="}

    def test_system_holds_no_object_per_row(self):
        # the rows live in a few flat int lists, so holding a system keeps
        # a few dozen containers alive, not one per row
        c = normalize_for_extform(compile_instance(parse_instance(gen_labs(7, 3)).instance))
        assert c.edge_count >= 2000
        build_system(c, include_x=True)     # fill the circuit's cached views first
        gc.collect()
        before = len(gc.get_objects())
        system = build_system(c, include_x=True)
        gc.collect()
        assert len(gc.get_objects()) - before <= 32
        assert len(system.rows) > c.edge_count

    def test_constructor_checks_arrays(self):
        def system(col, coef):
            return LinearSystem(2, (), [0, 2], col, coef, [1], (1, 1), ([0], [0], [-1]))

        assert system([0, 1], [1, -1]).rows[0].coeffs == ((("y", 0), 1), (("y", 1), -1))
        with pytest.raises(ValueError, match="coefficients must stay in"):
            system([0, 1], [1, 2])
        with pytest.raises(ValueError, match="column 2 out of range"):
            system([0, 2], [1, -1])
        with pytest.raises(ValueError, match="disagree in length"):
            system([0, 1], [1])

    def test_negative_only_variable_pinned_to_zero(self):
        b = CircuitBuilder(("a",))
        c = normalize_for_extform(b.finish(b.literal("a", False)))
        system = build_system(c, include_x=True)
        proj = system.row_by_tag(("proj", "a"))
        assert dict(proj.coeffs) == {("x", "a"): 1} and proj.rhs == 0


class TestCertificates:
    def test_figure_certificates_match_models(self):
        c = normalize_for_extform(fig_ddnnf())
        certs = enumerate_certificates(c, cap=100)
        assert len(certs) == 5
        points = {tuple(certificate_point(t, c)[1][("x", v)]
                        for v in c.variables) for t in certs}
        models = {tuple(m[v] for v in c.variables)
                  for m in enumerate_models(c, cap=100)}
        assert points == models

    def test_unsat_has_none(self):
        b = CircuitBuilder(("a",))
        c = normalize_for_extform(b.finish(b.false()))
        assert enumerate_certificates(c, cap=10) == []

    def test_conjunction_has_exactly_one(self):
        b = CircuitBuilder(("a", "b", "c"))
        core = b.add_and((b.literal("a", True), b.literal("b", True),
                          b.literal("c", False)))
        c = normalize_for_extform(b.finish(core))
        [t] = enumerate_certificates(c, cap=10)
        y, x = certificate_point(t, c)
        assert sum(y.values()) == len(t) - 1  # tree edges of the certificate
        assert all(v == 1 for v in y.values() if v)

    def test_points_satisfy_system(self):
        rng = random.Random(44)
        for c in normalized_corpus(rng):
            system = build_system(c, include_x=True)
            for t in enumerate_certificates(c, cap=5000):
                y, x = certificate_point(t, c)
                assert system.check_point({**y, **x})

    def test_flipped_edge_breaks_a_row(self):
        c = normalize_for_extform(compile_formula(encode_basic(worked_example())))
        system = build_system(c, include_x=True)
        y, x = certificate_point(enumerate_certificates(c, cap=1000)[0], c)
        assert system.check_point({**y, **x})
        for col in y:
            assert not system.check_point({**y, col: 1 - y[col], **x})

    def test_projections_equal_model_set(self):
        c = normalize_for_extform(compile_formula(encode_basic(worked_example())))
        certs = enumerate_certificates(c, cap=1000)
        assert len(certs) == 64
        points = {tuple(certificate_point(t, c)[1][("x", v)] for v in c.variables)
                  for t in certs}
        models = {tuple(m[v] for v in c.variables)
                  for m in enumerate_models(c, cap=1000)}
        assert points == models

    def test_cap_counts_before_building(self):
        c = normalize_for_extform(compile_formula(encode_basic(worked_example())))
        assert len(enumerate_certificates(c, cap=64)) == 64
        for cap in (63, 0):
            with pytest.raises(CapExceeded, match="certificate cap exceeded"):
                enumerate_certificates(c, cap=cap)

    def test_invalid_certificate_rejected(self):
        c = normalize_for_extform(fig_ddnnf())
        with pytest.raises(ValueError):
            validate_certificate(c, frozenset({0}))

    def test_point_needs_one_literal_per_variable(self, monkeypatch):
        # Or(a) over (a, b) passes check_normalized but fixes no literal
        # of b; a certificate that validate_certificate would refuse, with
        # both literals of a, is caught again when its point is read
        b = CircuitBuilder(("a", "b"))
        c = b.finish(b.add_or((b.literal("a", True),), None))
        [t] = enumerate_certificates(c, cap=10)
        with pytest.raises(ValueError, match="certificate fixes no literal of 'b'"):
            certificate_point(t, c)
        import nnfopt.extform as ef
        monkeypatch.setattr(ef, "validate_certificate", lambda circuit, t: None)
        c = normalize_for_extform(fig_ddnnf())
        lits = [nid for nid, kind in enumerate(c.columns[0]) if kind == "L"]
        with pytest.raises(ValueError, match="two literals of 'x' in one certificate"):
            certificate_point(frozenset({c.output, *lits}), c)


class TestValidateCertificate:
    # Or(And(x, y), -x, false) over (x, y); one certificate per rule
    circuit = from_nnf_text("nnf 6 5 2\nL 1\nL -1\nL 2\nO 0 0\nA 2 0 2\nO 0 3 4 1 3\n",
                            ("x", "y"))

    @pytest.mark.parametrize("gates, message", [
        ({4, 0, 2}, "certificate must contain the output"),
        ({5, 4, 0, 2, 1}, "Or gate 5 must have exactly one chosen input"),
        ({5, 4, 0}, "And gate 4 must have all inputs chosen"),
        ({5, 3}, "certificates cannot pass through false"),
        ({5, 1, 2}, "gate 2 feeds no chosen gate"),
    ])
    def test_rule(self, gates, message):
        with pytest.raises(ValueError, match=message):
            validate_certificate(self.circuit, frozenset(gates))

    def test_certificates_pass(self):
        for gates in ({5, 4, 0, 2}, {5, 1}):
            validate_certificate(self.circuit, frozenset(gates))


class TestDualOptimize:
    def test_zero_costs(self):
        rng = random.Random(50)
        for c in normalized_corpus(rng):
            if not c.record_kids[c.output]:
                continue
            value, _ = dual_optimize(c, {})
            assert value == 0

    def test_figure_unit_costs(self):
        c = normalize_for_extform(fig_ddnnf())
        cost = {e: 1 for e in range(c.edge_count)}
        value, _ = dual_optimize(c, cost)
        best = max(certificate_tree_cost(c, t, cost)
                   for t in enumerate_certificates(c, cap=100))
        assert value == best

    def test_random_integer_costs(self):
        rng = random.Random(51)
        for c in normalized_corpus(rng, count=4):
            if not c.record_kids[c.output]:
                continue
            certs = enumerate_certificates(c, cap=5000)
            for _ in range(20):
                cost = {e: rng.randint(-5, 5) for e in range(c.edge_count)}
                value, z = dual_optimize(c, cost)
                assert value == max(certificate_tree_cost(c, t, cost) for t in certs)
                assert all(isinstance(v, int) for v in z.values())

    def test_weight_placement_matches_maxplus(self):
        inst = worked_example()
        base = compile_formula(encode_basic(inst))
        norm = normalize_for_extform(base)
        w = weights_from_profits(inst)
        same, cost = weight_edge_costs(norm, w)
        assert same is norm
        value, _ = dual_optimize(norm, cost)
        assert value == optimize(base, w).value == 9

    def test_weight_placement_prices_every_certificate(self):
        # each certificate costs the weight of the model it fixes, although
        # the weight sits on every out-edge of a literal
        rng = random.Random(52)
        cases = [(c, WeightFunction(c.variables, {(v, bit): rng.randint(-6, 6)
                                                  for v in c.variables for bit in (0, 1)}))
                 for c in normalized_corpus(rng)]
        inst = worked_example()
        cases.append((normalize_for_extform(compile_formula(encode_basic(inst))),
                      weights_from_profits(inst)))
        for norm, w in cases:
            if not norm.record_kids[norm.output]:
                continue
            _, cost = weight_edge_costs(norm, w)
            values = []
            for t in enumerate_certificates(norm, cap=5000):
                x = certificate_point(t, norm)[1]
                values.append(w.value_of({v: x[("x", v)] for v in norm.variables}))
                assert certificate_tree_cost(norm, t, cost) == values[-1]
            # the weights are integers, so the costs are too
            value, z = dual_optimize(norm, {e: int(k) for e, k in cost.items()})
            assert value == max(values)
            assert all(type(v) is int for v in z.values())

    def test_extform_path_checks_the_normal_form_once(self, monkeypatch):
        import nnfopt.circuit as circuit_module
        inst = worked_example()
        norm = normalize_for_extform(compile_formula(encode_basic(inst)))
        calls = []
        compact = circuit_module._compact
        monkeypatch.setattr(circuit_module, "_compact",
                            lambda *args: calls.append(args) or compact(*args))
        build_system(norm, include_x=True)
        _, cost = weight_edge_costs(norm, weights_from_profits(inst))
        dual_optimize(norm, cost)
        enumerate_certificates(norm, cap=1000)
        assert len(calls) == 1

    def test_unsat_rejected(self):
        b = CircuitBuilder(("a",))
        c = normalize_for_extform(b.finish(b.false()))
        with pytest.raises(ValueError, match="infeasible"):
            dual_optimize(c, {})

    def test_assignment_equals_the_reference_dict(self):
        # same keys in the same order, same values of the same types: int
        # for integer costs, Fraction for rational ones
        rng = random.Random(53)
        cases = 0
        for c in normalized_corpus(rng, count=8):
            if not c.record_kids[c.output]:
                continue
            edges = range(c.edge_count)
            for cost in ({}, {e: rng.randint(-7, 7) for e in edges},
                         {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in edges}):
                value, z = dual_optimize(c, cost)
                ref_value, ref = dual_optimize_reference(c, cost)
                assert (value, type(value)) == (ref_value, type(ref_value))
                assert len(z) == len(ref) and list(z) == list(ref)
                assert [(v, type(v)) for v in z.values()] == [(v, type(v)) for v in ref.values()]
                assert z == ref and dict(z) == ref
                cases += 1
        assert cases >= 24

    def test_assignment_lacks_what_the_reference_dict_lacks(self, monkeypatch):
        # a childless Or that the output does not reach, outside the normal
        # form, so its check is off for both duals
        import extform_reference
        import nnfopt.extform as extform_module
        for module in (extform_module, extform_reference):
            monkeypatch.setattr(module, "check_normalized", lambda c, require_smooth: None)
        b = CircuitBuilder(("a", "b"))
        a, na, nb = b.literal("a", True), b.literal("a", False), b.literal("b", False)
        false = b.false()
        both = b.add_and((a, nb))
        c = b.finish(b.add_or((both, b.add_and((na, nb))), "a"))
        cost = {e: e + 1 for e in range(c.edge_count)}
        value, z = dual_optimize(c, cost)
        assert (value, z) == dual_optimize_reference(c, cost)
        n, m = c.node_count, c.edge_count
        missing = [("or", false), ("or", a), ("or", both), ("and", c.output, 0),
                   ("and", both, 2), ("and", both, -1), ("and", both, m), ("and", both),
                   ("or", c.output, 0), ("x", c.output), ("or", -1), ("or", -n), ("and", -3, 0),
                   ("or", n), ("or", c.output + 0.5), ("or", str(c.output)), ("or", None),
                   ("and", both, 0.5), "or", c.output]
        ref = dual_optimize_reference(c, cost)[1]
        for key in missing:
            assert key not in ref
            assert key not in z and z.get(key) is None
            with pytest.raises(KeyError):
                z[key]


class TestLpExport:
    def test_deterministic_and_sections(self):
        c = normalize_for_extform(fig_ddnnf())
        system = build_system(c, include_x=True)
        objective = {("x", "x"): Fraction(1), ("x", "y"): Fraction(-2)}
        text = to_lp_text(system, objective, comment="demo")
        assert text == to_lp_text(system, objective, comment="demo")
        assert text.startswith("\\ demo\nMaximize\n obj:")
        for section in ("Subject To", "Bounds", "End"):
            assert section in text
        assert " free" in text

    def test_exact_decimal_fractions(self):
        c = normalize_for_extform(fig_ddnnf())
        system = build_system(c, include_x=True)
        text = to_lp_text(system, {("x", "x"): Fraction(1, 2)})
        assert "0.5 x1" in text

    @pytest.mark.parametrize("sense", ["maximize", "MAX", "Min", "", None])
    def test_unknown_sense_rejected(self, sense):
        system = build_system(normalize_for_extform(fig_ddnnf()), include_x=True)
        with pytest.raises(ValueError, match="unknown sense"):
            to_lp_text(system, {("x", "x"): Fraction(1)}, sense=sense)

    def test_min_sense_writes_minimize(self):
        system = build_system(normalize_for_extform(fig_ddnnf()), include_x=True)
        objective = {("x", "x"): Fraction(1)}
        text = to_lp_text(system, objective, sense="min")
        assert text.startswith("Minimize\n")
        assert text.replace("Minimize", "Maximize", 1) == to_lp_text(system, objective)

    def test_system_without_columns_rejected(self):
        b = CircuitBuilder(("a",))
        system = build_system(normalize_for_extform(b.finish(b.false())), include_x=False)
        with pytest.raises(ValueError, match="cannot export a system with no columns"):
            to_lp_text(system, {})

    def test_unrepresentable_fraction_rejected(self):
        c = normalize_for_extform(fig_ddnnf())
        system = build_system(c, include_x=True)
        with pytest.raises(ValueError, match="decimal"):
            to_lp_text(system, {("x", "x"): Fraction(1, 3)})

    @pytest.mark.parametrize("value, text", [
        (Fraction(-1, 20), "-0.05"), (Fraction(-1, 2), "-0.5"), (Fraction(-3, 2), "-1.5"),
        (Fraction(-21, 4), "-5.25"), (Fraction(1, 20), "0.05"), (-7, "-7")])
    def test_lp_number_keeps_the_sign_outside_the_padding(self, value, text):
        assert _lp_number(value) == text
        assert Fraction(text) == value


class TestConstrainedHull:
    # The extended formulation of a constrained circuit describes the
    # convex hull of the constrained multilinear set: for every objective
    # over the projection columns, HiGHS's LP maximum over the flow system
    # equals the best feasible point, the LP is infeasible exactly when no
    # point is, and the integral dual reaches the same maximum.
    def test_lp_maximum_is_the_constrained_set_maximum(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        sparse = pytest.importorskip("scipy.sparse")
        rng = random.Random(5)
        instances = []
        while len(instances) < 30:
            inst = corpus_instance(rng)
            if len(inst.hypergraph.vertices) <= 8:
                instances.append(inst)
        lps = feasible_lps = 0
        for inst in instances:
            verts = inst.hypergraph.vertices
            n = len(verts)
            x = tuple(CnfVariable("x", v) for v in verts)
            sums = frozenset(rng.sample(range(n + 1), rng.randint(0, n + 1)))
            coeffs = [rng.randint(-2, 3) for _ in verts]
            lower = rng.randint(sum(k for k in coeffs if k < 0) - 2,
                                sum(k for k in coeffs if k > 0) + 2)
            upper = lower + rng.randint(0, 2)
            circuit = compile_instance(inst)
            forms = [
                (circuit, lambda bits: True),
                (restrict_cardinality(circuit, CardinalitySpec(x, sums)),
                 lambda bits: sum(bits[:n]) in sums),
                (knapsack_transform(circuit, dict(zip(x, coeffs)), lower, upper),
                 lambda bits: lower <= sum(map(int.__mul__, coeffs, bits[:n])) <= upper),
            ]
            for t, feasible in forms:
                norm = normalize_for_extform(t)
                assert norm.variables == instance_variables(inst)
                points = [p for p in multilinear_set(inst) if feasible(p)]
                system = build_system(norm, include_x=True)
                width = system.edge_count + len(system.variables)
                a = sparse.csr_matrix((system.coef, system.col, system.start),
                                      shape=(len(system.rhs), width))
                lo, hi = system.nonneg
                eq = [r for r in range(len(system.rhs)) if not lo <= r < hi]
                for _ in range(10):
                    obj = [rng.randint(-5, 5) for _ in system.variables]
                    res = linprog([0] * system.edge_count + [-k for k in obj],
                                  A_ub=-a[lo:hi], b_ub=[-b for b in system.rhs[lo:hi]],
                                  A_eq=a[eq], b_eq=[system.rhs[r] for r in eq],
                                  bounds=(None, None), method="highs")
                    lps += 1
                    if not points:
                        assert res.status == 2, res.message
                        continue
                    feasible_lps += 1
                    best = max(sum(map(int.__mul__, obj, p)) for p in points)
                    assert res.status == 0, res.message
                    assert -res.fun == pytest.approx(best, abs=1e-7)
                    w = WeightFunction(norm.variables,
                                       {(v, 1): k for v, k in zip(norm.variables, obj)})
                    value, _ = dual_optimize(*weight_edge_costs(norm, w))
                    assert type(value) is int and value == best
        assert (lps, feasible_lps) == (900, 770)
