import hashlib
import io
import sys

import pytest

from corpus import WORKED_TEXT
from nnfopt import cli
from nnfopt.cli import main
from nnfopt import from_nnf_text


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
