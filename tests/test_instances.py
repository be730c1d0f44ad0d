import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import WORKED_TEXT, worked_example, poly_points_sorted, random_instance
from nnfopt import (GuardViolation, Hypergraph, ParseError, brute_force,
                    compile_instance, format_instance, gen_labs, labs_energy,
                    optimize, parse_instance, weights_from_profits)
from nnfopt.instances import ParsedInstance


class TestParseInstance:
    def test_worked_example(self):
        p = parse_instance(WORKED_TEXT)
        assert p.sense == "max" and p.offset == 0 and p.card_sums is None
        ref = worked_example()
        assert p.instance.hypergraph.vertices == ref.hypergraph.vertices
        assert p.instance.hypergraph.edges == ref.hypergraph.edges
        assert p.instance.profit == ref.profit
        assert p.instance.sigma == ref.sigma

    def test_constant_only(self):
        p = parse_instance("7\n")
        assert p.offset == 7
        assert p.instance.hypergraph.vertices == ()
        assert p.report_value(Fraction(0)) == 7

    def test_literal_term(self):
        p = parse_instance("2 ~v1 v2\n")
        assert p.instance.sigma == ({1: 0, 2: 1},)

    def test_minimize_negates_profits(self):
        p = parse_instance("#minimize\n3 v1\n")
        assert p.sense == "min"
        assert p.instance.profit == (Fraction(-3),)
        assert p.report_value(Fraction(0)) == 0
        assert p.report_value(Fraction(3)) == -3

    def test_card_directive(self):
        p = parse_instance("#card 1,3\n1 v1 v2 v3\n")
        assert p.card_sums == frozenset({1, 3})

    def test_maximize_directive_is_default(self):
        p = parse_instance("#maximize\n3 v1\n")
        assert p.sense == "max" and p.instance.profit == (Fraction(3),)

    def test_rational_and_decimal_coefficients(self):
        p = parse_instance("1/2 v1\n-0.25 v2\n")
        assert p.instance.profit == (Fraction(1, 2), Fraction(-1, 4))

    def test_errors(self):
        for bad in ("x v1\n", "1 w1\n", "1 v0\n", "1 v1 v1\n", "1 v1 ~v1\n",
                    "#frobnicate\n", "#card\n", "#card 9\n1 v1\n"):
            with pytest.raises(ParseError):
                parse_instance(bad)

    def test_zero_denominator_and_huge_numbers_are_parse_errors(self):
        for bad in ("1/0 v1\n", "1e99999999 v1\n", "1E-9999_9999 v1\n",
                    "1 v" + "9" * 5000 + "\n"):
            with pytest.raises(ParseError):
                parse_instance(bad)

    def test_zero_coefficient_warns_but_keeps_edge(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            p = parse_instance("0 v1 v2\n")
        assert "zero coefficient" in caplog.text
        assert len(p.instance.hypergraph.edges) == 1

    def test_duplicate_monomials_kept(self):
        p = parse_instance("1 v1 v2\n2 v1 v2\n")
        assert len(p.instance.hypergraph.edges) == 2

    def test_round_trip(self):
        # the text format only carries vertices that occur in a term
        from nnfopt import LiteralInstance
        rng = random.Random(10)
        for _ in range(20):
            raw = random_instance(rng, max_v=6, max_e=6, max_deg=4)
            used = sorted({v for e in raw.hypergraph.edges for v in e})
            inst = LiteralInstance(Hypergraph(used, raw.hypergraph.edges),
                                   raw.sigma, raw.profit)
            sense = rng.choice(("max", "min"))
            offset = Fraction(rng.randint(-5, 5))
            card = frozenset(rng.sample(range(len(used) + 1), 2)) \
                if rng.random() < 0.5 else None
            p = ParsedInstance(inst, offset, sense, card)
            q = parse_instance(format_instance(p))
            assert q.sense == p.sense and q.offset == p.offset
            assert q.card_sums == p.card_sums
            assert q.instance.hypergraph.edges == inst.hypergraph.edges
            assert q.instance.sigma == inst.sigma
            assert q.instance.profit == inst.profit


FUZZ_TOKENS = ["1", "-2", "3/4", "1/0", "0", "0.5", "-1.25e2", "1e99999", "nan",
               "x", "v1", "v2", "~v1", "~v3", "v0", "v", "~", "vv1", "v-1", "v²",
               "#card", "#minimize", "#maximize", "#", "#card 1,2", "#card x",
               "#card -1", "1,2", "\t"]
fuzz_lines = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join)
fuzz_text = st.one_of(st.lists(fuzz_lines, max_size=6).map("\n".join),
                      st.text(max_size=40))


@st.composite
def instance_texts(draw):
    """Well-formed polynomial text with irregular spacing and directives."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["#minimize", "#maximize", "#MINIMIZE"])))
    used: set = set()
    for _ in range(draw(st.integers(0, 5))):
        vs = draw(st.lists(st.integers(1, 6), min_size=0, max_size=4, unique=True))
        used.update(vs)
        num, den = draw(st.integers(-20, 20)), draw(st.integers(1, 6))
        coeff = draw(st.sampled_from([f"{num}/{den}", str(num), f"{num}.5"]))
        toks = [coeff] + [draw(st.sampled_from([f"v{v}", f"~v{v}"])) for v in vs]
        lines.append(draw(st.sampled_from([" ", "  ", "\t"])).join(toks))
    if draw(st.booleans()):
        sums = draw(st.lists(st.integers(0, len(used)), min_size=1, max_size=3))
        lines.insert(0, "#card " + ",".join(map(str, sums)))
    return "\n".join(lines) + "\n"


class TestParserFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fuzz_text)
    def test_malformed_text_raises_only_parse_errors(self, text):
        try:
            parse_instance(text)
        except ParseError:
            pass

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instance_texts())
    def test_format_round_trip_is_identity(self, text):
        p = parse_instance(text)
        canonical = format_instance(p)
        q = parse_instance(canonical)
        assert format_instance(q) == canonical
        assert (q.sense, q.offset, q.card_sums) == (p.sense, p.offset, p.card_sums)
        assert q.instance.hypergraph.vertices == p.instance.hypergraph.vertices
        assert q.instance.hypergraph.edges == p.instance.hypergraph.edges
        assert (q.instance.sigma, q.instance.profit) == (p.instance.sigma, p.instance.profit)


class TestBruteForce:
    def test_worked_optimum(self):
        [(point, value)] = brute_force(worked_example(), None, 1)
        assert value == 9
        assert [point[v] for v in range(1, 7)] == [0, 1, 1, 1, 1, 1]

    def test_worked_cardinality_two(self):
        [(point, value)] = brute_force(worked_example(), {2}, 1)
        assert value == 4 and sum(point.values()) == 2

    def test_empty_polynomial(self):
        inst = parse_instance("0 v1\n").instance
        rows = brute_force(inst, None, 4)
        assert [v for _, v in rows] == [0, 0]

    def test_matches_pure_python_reference(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = random_instance(rng, max_v=6, max_e=6, max_deg=4)
            sums = None
            if rng.random() < 0.5:
                n = len(inst.hypergraph.vertices)
                sums = frozenset(rng.sample(range(n + 1), rng.randint(1, n + 1)))
            k = rng.randint(1, 6)
            got = brute_force(inst, sums, k)
            rows = poly_points_sorted(
                inst, feasible=(None if sums is None else
                                lambda bits: sum(bits) in sums))
            expect = rows[:k]
            verts = inst.hypergraph.vertices
            assert [(tuple(p[v] for v in verts), val) for p, val in got] == expect

    def test_cardinality_over_vertex_subset(self):
        from nnfopt import CardinalitySpec
        inst = worked_example()
        spec = CardinalitySpec((4, 5), {2})  # force x4 = x5 = 1
        [(point, value)] = brute_force(inst, spec, 1)
        assert point[4] == point[5] == 1
        rows = poly_points_sorted(inst, feasible=lambda b: b[3] + b[4] == 2)
        assert value == rows[0][1]

    def test_counted_vertex_outside_instance_rejected(self):
        # the oracle and the circuit transform refuse it with one message
        from nnfopt import CardinalitySpec, compile_instance, restrict_cardinality
        from nnfopt.cnf import CnfVariable
        inst = worked_example()
        with pytest.raises(ValueError, match=r"counted variables not in universe: \[99\]"):
            brute_force(inst, CardinalitySpec((99,), [0]), 1)
        with pytest.raises(ValueError, match=r"counted variables not in universe: \[x99\]"):
            restrict_cardinality(compile_instance(inst),
                                 CardinalitySpec((CnfVariable("x", 99),), [0]))

    @pytest.mark.parametrize("text, best", [
        ("".join(f"1e18 v{i}\n" for i in range(1, 11)), 10 ** 19),
        ("1e19 v1\n", 10 ** 19),
    ], ids=["sum-past-int64", "profit-past-int64"])
    def test_profits_past_int64_exact(self, text, best):
        # scaled profits whose absolute sum reaches 2**63 are summed as
        # Python ints, not wrapped around in int64
        inst = parse_instance(text).instance
        [(point, value)] = brute_force(inst, None, 1)
        assert value == best == optimize(compile_instance(inst),
                                         weights_from_profits(inst)).value
        assert all(point.values())
        assert [v for _, v in brute_force(inst, None, 3)][0] == best

    def test_feasible_points_only_past_the_first_chunk(self):
        # 2^17 points are read in two chunks of 2^16; every vertex set
        # means index 2^17 - 1, so the first chunk has no feasible point
        from nnfopt import LiteralInstance
        inst = LiteralInstance.plain(Hypergraph(range(1, 18), [{1, 2}, {3}]), [2, -1])
        [(point, value)] = brute_force(inst, {17}, 2)
        assert point == dict.fromkeys(range(1, 18), 1) and value == 1

    def test_non_integral_sums_rejected(self):
        # a truncated sum would admit the wrong bit counts
        with pytest.raises(ValueError, match="sum must be an integer"):
            brute_force(parse_instance("-1 v1\n-1 v2\n").instance, [Fraction(3, 2)], 1)

    def test_guard(self):
        h = Hypergraph(range(1, 26), [{1, 2}])
        from nnfopt import LiteralInstance
        inst = LiteralInstance.plain(h, [Fraction(1)])
        with pytest.raises(GuardViolation):
            brute_force(inst, None, 1)


class TestGenLabs:
    def test_n4_w1_minimum_is_one(self):
        p = parse_instance(gen_labs(4, 1))
        assert p.sense == "min"
        best = brute_force(p.instance, None, 1)
        assert p.report_value(best[0][1]) == 1

    def test_n2_w1_constant_offset(self):
        p = parse_instance(gen_labs(2, 1))
        assert p.instance.hypergraph.vertices == ()
        assert p.offset == 1

    def test_polynomial_matches_reference_energy(self):
        for n, w in ((4, 1), (5, 2), (6, 3), (7, 2)):
            p = parse_instance(gen_labs(n, w))
            verts = p.instance.hypergraph.vertices
            for bits in itertools.product((0, 1), repeat=n):
                point = dict(zip(range(1, n + 1), bits))
                poly = p.offset - p.instance.value_at(
                    {v: point[v] for v in verts})
                assert poly == labs_energy(bits, w)

    def test_parameter_guard(self):
        for n, w in ((3, 3), (2, 0), (1, 1)):
            with pytest.raises(GuardViolation):
                gen_labs(n, w)

    def test_deterministic_text(self):
        assert gen_labs(8, 2) == gen_labs(8, 2)
