import hashlib
import io
import sys
from fractions import Fraction

import pytest

from corpus import WORKED_TEXT
from nnfopt import cli
from nnfopt.cli import main
from nnfopt import (brute_force, compile_instance, from_nnf_text, gen_labs,
                    instance_variables, knapsack_transform, parse_instance,
                    project_solution, top_k, weights_from_profits)


WORKED_NNF = """\
nnf 50 76 9
L -6
L -9
L -5
L -8
A 2 2 3
L 5
L -4
A 2 6 3
L 4
L 8
A 2 8 9
O 8 2 7 10
A 2 5 11
O 5 2 4 12
L -3
L -7
A 2 14 15
L 3
L -2
L -1
L 2
A 2 19 20
O 2 2 18 21
A 2 15 22
L 1
L 7
A 3 24 20 25
O 7 2 23 26
A 2 17 27
O 3 2 16 28
A 4 0 1 13 29
L 6
A 3 2 3 29
A 3 6 3 29
A 2 14 15
A 3 18 17 15
O 3 2 34 35
A 3 8 9 36
O 8 2 33 37
A 2 5 38
O 5 2 32 39
A 2 1 40
L 9
A 2 19 15
A 2 24 25
O 7 2 43 44
A 7 20 17 8 5 9 42 45
O 9 2 41 46
A 2 31 47
O 6 2 30 48
"""


@pytest.fixture()
def example(tmp_path):
    path = tmp_path / "example.poly"
    path.write_text(WORKED_TEXT)
    return str(path)


def run(capsys, *argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolve:
    def test_worked_example(self, capsys, example):
        code, out = run(capsys, "solve", example)
        assert code == 0
        assert out == "optimum 9\npoint v1=0 v2=1 v3=1 v4=1 v5=1 v6=1\n"

    def test_encodings_agree(self, capsys, example):
        outs = set()
        for enc in ("auto", "basic", "ordered"):
            code, out = run(capsys, "solve", "--encoding", enc, example)
            assert code == 0
            outs.add(out.splitlines()[0])
        assert outs == {"optimum 9"}

    def test_stdin_dash(self, capsys):
        code, out = run(capsys, "solve", "-", stdin=WORKED_TEXT)
        assert code == 0 and out.startswith("optimum 9\n")

    def test_minimize_sense(self, capsys, tmp_path):
        p = tmp_path / "m.poly"
        p.write_text("#minimize\n5\n-2 v1\n3 v1 v2\n")
        code, out = run(capsys, "solve", str(p))
        assert code == 0
        assert out.splitlines()[0] == "optimum 3"

    def test_knapsack_flag(self, capsys, example):
        code, out = run(capsys, "solve", "--knapsack", "2:2:1,1,1,1,1,1", example)
        assert code == 0
        assert out.splitlines()[0] == "optimum 4"

    def test_infeasible(self, capsys, example):
        code, out = run(capsys, "solve", "--card-set", "0",
                        "--knapsack", "6:6:1,1,1,1,1,1", example)
        assert code == 0 and out == "infeasible\n"

    def test_card_set_and_knapsack_text(self, capsys, example):
        code, out = run(capsys, "solve", "--card-set", "2",
                        "--knapsack", "2:4:1,1,1,1,1,1", example)
        assert code == 0
        assert out == "optimum 4\npoint v1=0 v2=0 v3=0 v4=1 v5=1 v6=0\n"

    def test_labs_8_3_knapsack_text(self, capsys):
        # the optimum 2 is attained at several points; the witness is the
        # one the transform's tie-breaks pick
        _, labs = run(capsys, "gen-labs", "8", "3")
        code, out = run(capsys, "solve", "--knapsack", "3:8:1,2,3,1,2,3,1,2", "-",
                        stdin=labs)
        assert code == 0
        assert out == "optimum 2\npoint v1=0 v2=0 v3=0 v4=1 v5=0 v6=0 v7=0 v8=1\n"


    def test_negative_knapsack_lower_bound(self, capsys):
        # x1 + x2 <= x3 + x4: v1 v2 pays only with v3 and v4 set as well
        code, out = run(capsys, "solve", "--knapsack=-3:0:1,1,-1,-1", "-",
                        stdin="4 v1 v2\n-1 v3\n-1 v4\n")
        assert code == 0
        assert out == "optimum 2\npoint v1=1 v2=1 v3=1 v4=1\n"


class TestCard:
    def test_worked_example_set_two(self, capsys, example):
        code, out = run(capsys, "card", "--set", "2", example)
        assert code == 0
        assert out.splitlines()[0] == "optimum 4"

    def test_labs_8_3_set_four_text(self, capsys):
        _, labs = run(capsys, "gen-labs", "8", "3")
        code, out = run(capsys, "card", "--set", "4", "-", stdin=labs)
        assert code == 0
        assert out == "optimum 2\npoint v1=0 v2=0 v3=1 v4=0 v5=1 v6=1 v7=1 v8=0\n"

    def test_directive_in_file(self, capsys, tmp_path):
        p = tmp_path / "c.poly"
        p.write_text("#card 2\n" + WORKED_TEXT)
        code, out = run(capsys, "solve", str(p))
        assert out.splitlines()[0] == "optimum 4"


LABS_8_3_TOP5 = """\
value 2 point v1=0 v2=0 v3=0 v4=0 v5=1 v6=1 v7=0 v8=1
value 2 point v1=0 v2=0 v3=0 v4=1 v5=0 v6=0 v7=0 v8=1
value 2 point v1=0 v2=0 v3=0 v4=1 v5=0 v6=1 v7=1 v8=0
value 2 point v1=0 v2=0 v3=0 v4=1 v5=1 v6=0 v7=1 v8=0
value 2 point v1=0 v2=0 v3=1 v4=0 v5=0 v6=0 v7=0 v8=1
"""


class TestTopk:
    def test_worked_top3(self, capsys, example):
        code, out = run(capsys, "topk", "--k", "3", example)
        assert code == 0
        values = [ln.split()[1] for ln in out.splitlines()]
        assert values == ["9", "6", "4"]

    def test_labs_8_3_top5_text(self, capsys):
        # all five tie at the optimum; ties go to the smaller assignment in
        # universe order
        _, labs = run(capsys, "gen-labs", "8", "3")
        code, out = run(capsys, "topk", "--k", "5", "-", stdin=labs)
        assert code == 0
        assert out == LABS_8_3_TOP5

    def test_k_past_sys_maxsize_lists_every_point(self, capsys):
        tri = "2 v1 v2\n-1 v2 v3\n3 v3 v1\n"
        code, out = run(capsys, "topk", "--k", str(2 ** 70), "-", stdin=tri)
        assert code == 0
        code8, out8 = run(capsys, "topk", "--k", "8", "-", stdin=tri)
        assert code8 == 0 and out == out8 and len(out.splitlines()) == 8

    def test_knapsack_empty_window_is_infeasible(self, capsys, example):
        # every point weighs at most 6, so no point reaches the window
        code, out = run(capsys, "topk", "--k", "3", "--knapsack", "100:100:1,1,1,1,1,1",
                        example)
        assert (code, out) == (0, "infeasible\n")

    def test_knapsack_window_ranks_the_transformed_circuit(self, capsys, example):
        coeffs, lower, upper = (1, 2, 1, 1, -1, 1), 2, 3
        code, out = run(capsys, "topk", "--k", "4", "--knapsack",
                        f"{lower}:{upper}:{','.join(map(str, coeffs))}", example)
        assert code == 0
        parsed = parse_instance(WORKED_TEXT)
        inst = parsed.instance
        verts = inst.hypergraph.vertices
        x = instance_variables(inst)[:len(verts)]
        c = knapsack_transform(compile_instance(inst), dict(zip(x, coeffs)), lower, upper)
        ranked = [(project_solution(a, inst), value)
                  for a, value in top_k(c, weights_from_profits(inst), 4)]
        assert out == "".join(f"value {parsed.report_value(value)} point "
                              + " ".join(f"v{v}={p[v]}" for v in sorted(p)) + "\n"
                              for p, value in ranked)
        # the oracle ranks every point alike, ties toward smaller points
        inside = [(p, value) for p, value in brute_force(inst, None, 2 ** len(verts))
                  if lower <= sum(a * p[v] for a, v in zip(coeffs, verts)) <= upper]
        assert ranked == inside[:4]
        assert out.startswith("value 4 ")   # the window cuts off the optimum 9


class TestCompile:
    def test_emit_cnf_counts(self, capsys, example):
        code, out = run(capsys, "compile", "--emit-cnf", "--encoding", "ordered",
                        example)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p cnf 9 13"
        assert len(lines) == 14

    def test_emit_nnf_parses_back(self, capsys, example):
        code, out = run(capsys, "compile", "--emit-nnf", example)
        assert code == 0
        c = from_nnf_text(out)
        assert c.node_count > 1

    def test_emit_nnf_worked_example_text(self, capsys, example):
        # the circuit the ordered encoding of the worked example compiles to,
        # node for node; literal blocks must expand to exactly these edges
        code, out = run(capsys, "compile", "--emit-nnf", example)
        assert code == 0
        assert out == WORKED_NNF

    def test_nothing_to_emit(self, capsys, example):
        code, _ = run(capsys, "compile", example)
        assert code == 2


CYCLIC_TEXT = "2 v1 v2\n-1 v2 v3\n3 v3 v1\n1 v1 v2 v3\n"
FRACTIONAL_TEXT = "17/3 v1 v2\n-1 v2 v3\n5/2 v3\n"

# SHA-256 of the LP text `nnfopt extform` writes; rewrites of the normal
# form and of the system extraction must keep these bytes unchanged
EXTFORM_SHA256 = {
    "worked": "1ebbf1558d565dc88a025df2d8fff96eb5926403f8119f2171e0f73732f9bbfa",
    "labs-8-3": "970ecce1284e9836333bbd59ffb0c9e37af7be2dc637241badf78096f950abf0",
    "cyclic": "9376fc5aefb71e881683d58017d944544c202ccf54adbd0cd8778499b8d87329",
    "fractional-scaled":
        "cd42fc7f5c38375c1be103deefa12c01adde1d4952dbb01f2198c21e561b7ec1",
}

# SHA-256 of the circuit text `nnfopt compile --emit-nnf` writes; the
# compiler and the text writer must keep these bytes unchanged
EMIT_NNF_SHA256 = {
    "labs-8-3": "891940660a63ed92e0e9e0f3b245774f65e92d12d4f11f29c439eefd24f69d3c",
    "cyclic": "1e0e0c54f492861e598b74b318ff4ea57ba58267c08fae29dbbcc755e9177c4e",
}


class TestEmitNnfPinned:
    @pytest.mark.parametrize("name", sorted(EMIT_NNF_SHA256))
    def test_circuit_text_pinned(self, capsys, name):
        if name == "labs-8-3":
            _, text = run(capsys, "gen-labs", "8", "3")
        else:
            text = CYCLIC_TEXT
        code, out = run(capsys, "compile", "--emit-nnf", "-", stdin=text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EMIT_NNF_SHA256[name]


def lp_text_maximum(text):
    """The maximum of an LP that nnfopt extform writes, by HiGHS, or None
    when it is infeasible.  Reads only that dialect: one objective line,
    one row per line, and '>=' or 'free' bounds (default: >= 0)."""
    linprog = pytest.importorskip("scipy.optimize").linprog

    def terms(tokens):
        out, sign, k = {}, 1, 1
        for tok in tokens:
            if tok in ("+", "-"):
                sign = -1 if tok == "-" else 1
            elif tok[0].isdigit():
                k = Fraction(tok)
            else:
                out[tok], sign, k = sign * k, 1, 1
        return out

    section, objective, rows, bounds = None, {}, [], {}
    for line in text.splitlines():
        tokens = line.split()
        if line.startswith("\\"):
            continue
        if tokens[0] in ("Maximize", "Subject", "Bounds", "End"):
            section = tokens[0]
        elif section == "Maximize":
            objective = terms(tokens[1:])
        elif section == "Subject":
            rows.append((terms(tokens[1:-2]), tokens[-2], Fraction(tokens[-1])))
        else:
            bounds[tokens[0]] = (None, None) if tokens[1] == "free" \
                else (float(Fraction(tokens[2])), None)
    names = sorted({*objective, *bounds, *(v for r, _, _ in rows for v in r)})
    index = {name: j for j, name in enumerate(names)}

    def dense(coeffs, sign=1):
        row = [0.0] * len(names)
        for name, k in coeffs.items():
            row[index[name]] = sign * float(k)
        return row

    eq = [(dense(r), float(b)) for r, rel, b in rows if rel == "="]
    ge = [(dense(r, -1), -float(b)) for r, rel, b in rows if rel == ">="]
    res = linprog(dense(objective, -1),
                  A_ub=[r for r, _ in ge] or None, b_ub=[b for _, b in ge] or None,
                  A_eq=[r for r, _ in eq] or None, b_eq=[b for _, b in eq] or None,
                  bounds=[bounds.get(name, (0, None)) for name in names], method="highs")
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


class TestExtform:
    def test_emit_lp(self, capsys, example):
        code, out = run(capsys, "extform", example)
        assert code == 0
        assert out.splitlines()[1] == "Maximize"
        assert "Subject To" in out and out.rstrip().endswith("End")

    @pytest.mark.parametrize("name", sorted(EXTFORM_SHA256))
    def test_lp_bytes_pinned(self, capsys, example, name):
        if name == "worked":
            code, out = run(capsys, "extform", example)
        elif name == "labs-8-3":
            _, labs = run(capsys, "gen-labs", "8", "3")
            code, out = run(capsys, "extform", "-", stdin=labs)
        elif name == "cyclic":
            code, out = run(capsys, "extform", "-", stdin=CYCLIC_TEXT)
        else:
            code, out = run(capsys, "extform", "--scale-objective", "-",
                            stdin=FRACTIONAL_TEXT)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXTFORM_SHA256[name]

    def test_card_directive_restricts_the_lp(self, capsys, example, tmp_path):
        # extform writes the LP of the circuit that solve optimizes: under
        # #card 2 its maximum is card --set 2's optimum, 4, not the free 9
        p = tmp_path / "c.poly"
        p.write_text("#card 2\n" + WORKED_TEXT)
        code, lp = run(capsys, "extform", str(p))
        assert code == 0
        _, solved = run(capsys, "card", "--set", "2", example)
        optimum = Fraction(solved.splitlines()[0].split()[1])
        assert optimum == 4
        assert lp_text_maximum(lp) == pytest.approx(float(optimum), abs=1e-7)
        _, free_lp = run(capsys, "extform", example)
        assert lp_text_maximum(free_lp) == pytest.approx(9, abs=1e-7)

    def test_fractional_objective_needs_scaling(self, capsys, tmp_path):
        p = tmp_path / "f.poly"
        p.write_text("1/3 v1\n")
        code, out = run(capsys, "extform", str(p))
        assert code == 2 and out == ""
        code, out = run(capsys, "extform", "--scale-objective", str(p))
        assert code == 0 and "scaled by 3" in out.splitlines()[0]

    def test_non_decimal_profit_is_a_clean_error(self, capsys, tmp_path):
        p = tmp_path / "f.poly"
        p.write_text(FRACTIONAL_TEXT)
        assert main(["extform", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: profit 17/3 has no exact decimal form; "
            "pass --scale-objective to clear denominators"]
        code, out = run(capsys, "extform", "--scale-objective", str(p))
        assert code == 0
        assert out.splitlines()[:3] == [
            "\\ objective scaled by 6; declared sense max, constant offset 0",
            "Maximize",
            " obj: + 34 x4 - 6 x5 + 15 x6"]


class TestOracle:
    def test_matches_solve(self, capsys, example):
        _, solved = run(capsys, "solve", example)
        _, oracled = run(capsys, "oracle", example)
        assert solved == oracled

    def test_card_set(self, capsys, example):
        code, out = run(capsys, "oracle", "--card-set", "2", example)
        assert out.splitlines()[0] == "optimum 4"

    def test_topk_mode(self, capsys, example):
        code, out = run(capsys, "oracle", "--k", "3", example)
        values = [ln.split()[1] for ln in out.splitlines()]
        assert values == ["9", "6", "4"]

    def test_guard_exit_code(self, capsys, tmp_path):
        p = tmp_path / "big.poly"
        p.write_text("".join(f"1 v{i} v{i+1}\n" for i in range(1, 26)))
        code, _ = run(capsys, "oracle", str(p))
        assert code == 3


class TestGenLabs:
    def test_pipe_into_solve(self, capsys):
        code, text = run(capsys, "gen-labs", "6", "2")
        assert code == 0
        code, out = run(capsys, "solve", "-", stdin=text)
        assert code == 0
        code, oracle_out = run(capsys, "oracle", "-", stdin=text)
        assert out.splitlines()[0] == oracle_out.splitlines()[0]

    def test_bad_parameters_exit_three(self, capsys):
        code, _ = run(capsys, "gen-labs", "3", "3")
        assert code == 3


class TestExitCodes:
    def test_parse_error_is_two(self, capsys, tmp_path):
        p = tmp_path / "bad.poly"
        p.write_text("1 frog\n")
        code, _ = run(capsys, "solve", str(p))
        assert code == 2

    def test_zero_denominator_is_two(self, capsys, tmp_path):
        p = tmp_path / "zero.poly"
        p.write_text("1/0 v1\n")
        code = main(["solve", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: line 1: bad coefficient '1/0'\n"

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _ = run(capsys, "solve", str(tmp_path / "nope.poly"))
        assert code == 2


class TestFlagValues:
    @pytest.mark.parametrize("argv,message", [
        (["card", "--set", "99"], "sum set '99' has sums outside 0..6: [99]"),
        (["solve", "--card-set", "0,99"], "sum set '0,99' has sums outside 0..6: [99]"),
        (["topk", "--k", "2", "--card-set", "7"], "sum set '7' has sums outside 0..6: [7]"),
        (["oracle", "--card-set", "-1"], "sum set '-1' has sums outside 0..6: [-1]"),
        (["solve", "--knapsack", "5:1:1,1,1,1,1,1"], "empty knapsack interval 5:1"),
        (["solve", "--card-set", "2", "--knapsack", "3:2:1,1,1,1,1,1"],
         "empty knapsack interval 3:2"),
        (["card", "--set", ""], "bad sum set ''"),
        (["solve", "--card-set", ""], "bad sum set ''"),
        (["topk", "--k", "2", "--card-set", ""], "bad sum set ''"),
        (["oracle", "--card-set", ""], "bad sum set ''"),
        (["solve", "--knapsack", "1:2:"], "knapsack needs 6 coefficients, got 0"),
        (["solve", "--knapsack", "0:0"], "knapsack spec must look like L:U:c1,c2,..."),
        (["solve", "--knapsack", ""], "knapsack spec must look like L:U:c1,c2,..."),
        (["solve", "--knapsack", "1:2:1,a"], "bad knapsack spec '1:2:1,a'"),
    ])
    def test_bad_value_is_one_line_before_compiling(self, capsys, monkeypatch, example,
                                                    argv, message):
        def no_compile(*args):
            raise AssertionError("compiled before the flag values were checked")

        monkeypatch.setattr(cli, "compile_instance", no_compile)
        assert main(argv + [example]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_compile_without_emit_flag_is_refused_before_encoding(self, capsys,
                                                                  monkeypatch, example):
        def no_encode(*args):
            raise AssertionError("encoded before the emit flags were checked")

        monkeypatch.setattr(cli, "encode_instance", no_encode)
        assert main(["compile", example]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: nothing to emit: pass --emit-cnf and/or --emit-nnf"]

    def test_extreme_sums_accepted(self, capsys, example):
        code, out = run(capsys, "card", "--set", "0,6", example)
        assert code == 0 and out.splitlines()[0] == "optimum 6"


class TestDegenerateInstances:
    def test_duplicate_monomials_end_to_end(self, capsys):
        text = "1 v1 v2\n2 v1 v2\n"
        code, out = run(capsys, "solve", "-", stdin=text)
        assert code == 0 and out.splitlines()[0] == "optimum 3"
        _, oracle_out = run(capsys, "oracle", "-", stdin=text)
        assert out == oracle_out

    def test_cyclic_instance_encodings_agree(self, capsys):
        text = "2 v1 v2\n-1 v2 v3\n3 v3 v1\n"
        values = set()
        for enc in ("auto", "basic", "ordered"):
            code, out = run(capsys, "solve", "--encoding", enc, "-", stdin=text)
            assert code == 0
            values.add(out.splitlines()[0])
        _, oracle_out = run(capsys, "oracle", "-", stdin=text)
        assert values == {oracle_out.splitlines()[0]}

    def test_nonpositive_k_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "topk", "--k", "0", "-")
        assert exc.value.code == 2

    def test_constant_only_solve_and_oracle(self, capsys):
        code, out = run(capsys, "solve", "-", stdin="7\n")
        assert code == 0 and out.splitlines()[0] == "optimum 7"
        code, out2 = run(capsys, "oracle", "-", stdin="7\n")
        assert code == 0 and out == out2

    @pytest.mark.parametrize("spec, code, out", [
        ("0:0:", 0, "optimum 5\npoint \n"), ("0:3:", 0, "optimum 5\npoint \n"),
        ("1:2:", 0, "infeasible\n"), ("0:0", 2, ""),
    ])
    def test_knapsack_without_vertices(self, capsys, spec, code, out):
        # no vertices, so the coefficient list is empty and every sum is 0
        assert run(capsys, "solve", "--knapsack", spec, "-", stdin="5\n") == (code, out)

    @pytest.mark.parametrize("text", [
        "".join(f"1e18 v{i}\n" for i in range(1, 11)), "1e19 v1\n",
    ], ids=["sum-past-int64", "profit-past-int64"])
    def test_oracle_exact_past_int64(self, capsys, text):
        code, out = run(capsys, "solve", "-", stdin=text)
        assert code == 0 and out.splitlines()[0] == "optimum 10000000000000000000"
        code, oracle_out = run(capsys, "oracle", "-", stdin=text)
        assert code == 0 and oracle_out == out

    def test_offset_only_labs(self, capsys):
        code, text = run(capsys, "gen-labs", "2", "1")
        assert code == 0
        code, out = run(capsys, "solve", "-", stdin=text)
        assert code == 0 and out.splitlines()[0] == "optimum 1"


# Inputs of the CLI byte pin below: every instance shape the CLI reads,
# including complemented literals and an instance without vertices
PIN_INPUTS = {
    "worked": WORKED_TEXT,
    "cyclic": CYCLIC_TEXT,
    "fractional": FRACTIONAL_TEXT,
    "complemented": "2 v1 ~v2\n-3 ~v1 v3\n4 ~v2 ~v3 v4\n1 v4\n#minimize\n",
    "constant": "5\n",
    "labs-8-3": gen_labs(8, 3),
}


def pin_matrix():
    """(input name, argv) of every command the CLI byte pin runs on stdin.

    Two families are left out because they have their own tests:
    extform on files with #card, and empty knapsack coefficient lists."""
    for name, text in PIN_INPUTS.items():
        n = len(parse_instance(text).instance.hypergraph.vertices)
        card = str(n // 2)
        coeffs = ",".join(str(i % 4 - 1) for i in range(n))
        for enc in ("auto", "basic", "ordered"):
            e = ["--encoding", enc]
            yield name, ["solve", *e]
            yield name, ["topk", "--k", "5", *e]
            yield name, ["card", "--set", card, *e]
            yield name, ["topk", "--k", "3", "--card-set", card, *e]
            yield name, ["extform", "--scale-objective", *e]
            yield name, ["compile", "--emit-cnf", "--emit-nnf", *e]
            if n:
                yield name, ["solve", "--knapsack", f"1:{n}:{coeffs}", *e]
                yield name, ["solve", "--card-set", card, "--knapsack", f"1:{n}:{coeffs}", *e]
        if n:
            yield name, ["solve", "--knapsack", f"{2 * n}:{3 * n}:{coeffs}"]
        yield name, ["oracle"]
        yield name, ["oracle", "--k", "3", "--card-set", card]
        yield name, ["extform"]
        yield name, ["card", "--set", str(n + 1)]
        yield name, ["solve", "--knapsack", "0:0"]
        yield name, ["solve", "--encoding", "frog"]


# SHA-256 over (input, argv, exit code, stdout, stderr) of every command
# of pin_matrix; refactors of the CLI must keep these bytes unchanged
CLI_MATRIX_SHA256 = "b4bddb3661731bad8b236391121146d61e4389de8d92b188ad69b7679d3134cf"


class TestCliBytesPinned:
    def test_command_matrix_pinned(self, capsys):
        digest = hashlib.sha256()
        commands = 0
        for name, argv in pin_matrix():
            old = sys.stdin
            sys.stdin = io.StringIO(PIN_INPUTS[name])
            try:
                code = main(argv + ["-"])
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.stdin = old
            captured = capsys.readouterr()
            digest.update(repr((name, argv, code, captured.out, captured.err)).encode())
            commands += 1
        assert commands == 179
        assert digest.hexdigest() == CLI_MATRIX_SHA256
