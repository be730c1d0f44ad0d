"""The benchmark scripts run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
