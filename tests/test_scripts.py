"""The benchmark scripts run end to end on small inputs and record
through one harness, and the cycle family they share is pinned."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from families import shuffled_cycle_of_triples

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 over the edges (each a sorted tuple) and profits of
# shuffled_cycle_of_triples(n, n), captured from the generator's earlier
# home in scripts/bench_order.py, where BENCH_order.json and
# BENCH_scaling.json recorded it
CYCLE_SHA256 = {
    12: "5046db034ab1b45606d4d76592bbf8c3b41be6d45d20e70a10c12e63578e2f49",
    300: "72f2a9bdc02d3d1fbb02591b22c81fcd0726e38fbd1afd9f7c0f7922b42b056b",
    600: "3b62525d3db3439473c4c2448555b451ba70024944e3741ebd835bfd5cdd297a",
}


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_bench_scaling_writes_and_merges(tmp_path):
    out = tmp_path / "scaling.json"
    for label in ("first", "second"):
        proc = run_script("bench_scaling.py", "--label", label, "--out", str(out),
                          "--intervals", "20", "--cycles", "12")
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert sorted(runs) == ["first", "second"]
    first, second = runs["first"]["rungs"], runs["second"]["rungs"]
    assert sorted(first) == ["intervals n=20", "shuffled cycle of triples n=12"]
    row = first["intervals n=20"]
    assert (row["n"], row["edges_in"]) == (20, 40)
    assert row["nodes"] > 0 and row["edges"] > 0
    assert set(row["seconds"]) == {"encode", "compile"}
    # sizes and circuits repeat exactly from run to run
    assert {k: {f: r[f] for f in ("nodes", "edges", "circuit_sha256")} for k, r in first.items()} \
        == {k: {f: r[f] for f in ("nodes", "edges", "circuit_sha256")} for k, r in second.items()}


def test_bench_topk_writes_and_merges(tmp_path):
    out = tmp_path / "topk.json"
    for label, args in (("first", ["--labs", "6", "--intervals", "12"]),
                        ("second", ["--labs", "--intervals", "12"]),
                        ("second", ["--labs", "6", "--intervals"])):
        proc = run_script("bench_topk.py", "--label", label, "--out", str(out), *args)
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert sorted(runs) == ["first", "second"]
    # a run merges into its label case by case
    first, second = runs["first"]["cases"], runs["second"]["cases"]
    assert sorted(first) == sorted(second) == ["gen-labs 6 3", "intervals n=12"]
    row = first["intervals n=12"]
    assert row["nodes"] > 0 and row["edges"] > 0
    assert set(row["seconds"]) == {"optimize", "top_k k=1", "top_k k=10", "top_k k=100"}
    # sizes and answers repeat exactly from run to run
    assert {k: {f: r[f] for f in ("nodes", "edges", "answers_sha256")} for k, r in first.items()} \
        == {k: {f: r[f] for f in ("nodes", "edges", "answers_sha256")} for k, r in second.items()}


def test_bench_extform_writes_and_merges(tmp_path):
    # one pass over labs-dense's four items; the run merges into a file
    # that holds another run and a stale copy of its own label
    out = tmp_path / "extform.json"
    out.write_text(json.dumps({"runs": {"other": {"seed": 9}, "new": {"seed": 9}}}),
                   encoding="utf-8")
    proc = run_script("bench_extform.py", "--label", "new", "--out", str(out),
                      "--probe-seconds", "0", "--workloads", "labs-dense")
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert runs["other"] == {"seed": 9}
    run = runs["new"]
    assert (run["seed"], run["probe_seconds"]) == (1, 0.0)
    assert sorted(run["workloads"]) == ["labs-dense"]
    row = run["workloads"]["labs-dense"]
    assert row["query_circuits"] == 1
    assert sorted(row["stage_min_ms"]) == sorted(
        ["normalize", "build_system", "weight_edge_costs", "dual_optimize"])
    assert all(ms > 0 for ms in row["stage_min_ms"].values())
    # one pass: each of the four items runs every query path
    paths = row["full_collections"]
    assert {"solve", "topk", "card", "knapsack", "extform"} <= paths.keys()
    assert paths["solve"]["calls"] == 4
    assert all(p["calls"] >= 4 and p["collections"] >= 0 for p in paths.values())


def test_bench_structure_writes_and_merges(tmp_path):
    out = tmp_path / "structure.json"
    for label, args in (("first", ["--workloads", "beta-intervals", "--labs", "8"]),
                        ("second", ["--workloads", "--labs", "8"]),
                        ("second", ["--workloads", "beta-intervals", "--labs"])):
        proc = run_script("bench_structure.py", "--label", label, "--out", str(out), *args)
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert sorted(runs) == ["first", "second"]
    # a run merges into its label workload by workload and case by case
    first, second = runs["first"], runs["second"]
    assert sorted(first["workloads"]) == sorted(second["workloads"]) == ["beta-intervals"]
    assert sorted(first["labs"]) == sorted(second["labs"]) == ["gen-labs 8 3"]
    row = first["workloads"]["beta-intervals"]
    assert sorted(row) == ["compiled", "knapsack", "normal", "restricted"]
    assert row["compiled"]["circuits"] == 60 and row["knapsack"]["check_ms"] > 0
    assert first["labs"]["gen-labs 8 3"]["peak_mb"] > 0
    # sizes repeat exactly from run to run

    def sizes(run):
        return ({k: (r["circuits"], r["nodes"], r["edges"])
                 for k, r in run["workloads"]["beta-intervals"].items()},
                {k: (r["nodes"], r["edges"]) for k, r in run["labs"].items()})

    assert sizes(first) == sizes(second)


def test_bench_order_writes_and_merges(tmp_path):
    # a full run; it merges into a file that holds another run and a stale
    # copy of its own label
    out = tmp_path / "order.json"
    out.write_text(json.dumps({"runs": {"other": {"repeat": 9},
                                        "new": {"repeat": 9, "instances": {
                                            "gen-labs 12 3": {"width": 0}}}}}),
                   encoding="utf-8")
    proc = run_script("bench_order.py", "--label", "new", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert runs["other"] == {"repeat": 9}
    run = runs["new"]
    assert run["repeat"] == 5 and run["machine"]["cpus"] > 0
    sizes = {name: (row["graph_nodes"], row["graph_edges"], row["width"])
             for name, row in run["instances"].items()}
    assert sizes == {"gen-labs 12 3": (1840, 3654, 11), "gen-labs 14 3": (2794, 5580, 13),
                     "gen-labs 16 3": (3956, 7930, 15),
                     "shuffled cycle of triples n=300": (1800, 3000, 4),
                     "shuffled cycle of triples n=600": (3600, 6000, 4)}
    for row in run["instances"].values():
        digest = row["order_sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert sorted(row["seconds"]) == sorted(
            ["beta_check", "encode", "incidence_graph", "minfill",
             "order_from_decomposition", "encode_instance"])
        assert all(sorted(t) == ["median", "min"] and t["min"] <= t["median"]
                   for t in row["seconds"].values())


def test_bench_order_selects_cases(tmp_path):
    out = tmp_path / "order.json"
    for label, args in (("first", ["--labs", "6", "--cycles", "12"]),
                        ("second", ["--labs", "--cycles", "12"]),
                        ("second", ["--labs", "6", "--cycles"])):
        proc = run_script("bench_order.py", "--label", label, "--out", str(out), *args)
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert sorted(runs) == ["first", "second"]
    # a run merges into its label case by case
    first, second = runs["first"]["instances"], runs["second"]["instances"]
    assert sorted(first) == sorted(second) == ["gen-labs 6 3", "shuffled cycle of triples n=12"]
    # sizes and orders repeat exactly from run to run
    fields = ("graph_nodes", "graph_edges", "width", "order_sha256")
    assert {k: [r[f] for f in fields] for k, r in first.items()} \
        == {k: [r[f] for f in fields] for k, r in second.items()}


@pytest.mark.parametrize("n", sorted(CYCLE_SHA256))
def test_shuffled_cycle_of_triples_pinned(n):
    inst = shuffled_cycle_of_triples(n, n)
    data = repr(([tuple(sorted(e)) for e in inst.hypergraph.edges],
                 [str(p) for p in inst.profit]))
    assert hashlib.sha256(data.encode()).hexdigest() == CYCLE_SHA256[n]


@pytest.fixture
def benchlib(monkeypatch):
    # benchlib puts perfbench/ and tests/ on sys.path; monkeypatch restores it
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("benchlib")


def test_recorder_merges_case_by_case(tmp_path, benchlib):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {"other": {"repeat": 9, "cases": {"a": 0}}}}),
                   encoding="utf-8")
    add = benchlib.recorder(out, "new", repeat=3, seed=1)
    assert add("cases", "a", {"s": 1}) == {"s": 1}
    add("cases", "b", {"s": 2})
    add("labs", "c", {"s": 3})
    # a second run under the label measures a subset of its cases
    add = benchlib.recorder(out, "new", repeat=4)
    add("cases", "b", {"s": 5})
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert runs["other"] == {"repeat": 9, "cases": {"a": 0}}
    assert runs["new"] == {"repeat": 4, "seed": 1, "cases": {"a": {"s": 1}, "b": {"s": 5}},
                           "labs": {"c": {"s": 3}}}


def test_recorder_keeps_finished_cases(tmp_path, benchlib):
    out = tmp_path / "bench.json"
    add = benchlib.recorder(out, "new", repeat=1)

    def measure(case):
        if case == "second":
            raise RuntimeError("measure failed")
        return {"s": 1}

    with pytest.raises(RuntimeError):
        for case in ("first", "second"):
            add("cases", case, measure(case))
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "runs": {"new": {"repeat": 1, "cases": {"first": {"s": 1}}}}}


def test_bench_scripts_go_through_benchlib():
    # no script imports another one or reads or writes its JSON file itself
    scripts = sorted((ROOT / "scripts").glob("bench_*.py"))
    assert scripts
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("bench_") for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("bench_"), path.name
                assert node.module != "json", path.name
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in {("json", "load"), ("json", "dump")}, \
                    path.name
