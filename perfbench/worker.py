"""One workload run, in a fresh process started by run.py.

Modes:
  probe      import the library and build the workload's items, then exit;
             run.py times this process from start to exit for setup_s.
  reference  print the reference answers as JSON.  It is its own process so
             that neither the oracle's time nor its arrays count toward the
             measured process.
  measure    read the references on stdin and run the workload as a closed
             loop with one client: one instance at a time, each through all
             of its query paths and checked before the next starts.  Prints
             one JSON line of raw metric values.

The items are visited in order, round after round, until --seconds have
passed and at least one full round is done.  With --trace 1 each item runs
once untraced and once traced in every round, and then the largest item
runs once more to probe peak memory; the metrics are then per layer and
per round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import oracle
import pipeline
import spans
import workloads
from nnfopt import cli, cnf, extform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench_state")

PATHS = ("solve", "topk", "card", "knapsack", "extform")
# size count -> the query path that produced it
COUNT_PATH = {"cnf.clauses": "solve", "hypergraph.minfill_width": "solve",
              "compiler.nodes": "solve", "compiler.edges": "solve",
              "circuit.sbf_edges": "topk", "transforms.card_edges": "card",
              "transforms.knapsack_edges": "knapsack",
              "circuit.normal_edges": "extform", "extform.rows": "extform"}
# host speed: a fixed pure-Python loop, timed between items
REFERENCE_LOOP = 60_000
NOMINAL_LOOP_S = 0.004      # the loop's time on a quiet 2-core x86-64 host, Python 3.11
SPEED_EVERY_S = 0.2
LAYERS = ("instances.parse", "hypergraph.order", "cnf.encode", "compiler.compile",
          "circuit.check_structure", "circuit.smooth_binary_form", "circuit.normalize",
          "maxplus.optimize", "maxplus.top_k", "transforms.cardinality",
          "transforms.card_optimize", "transforms.knapsack",
          "transforms.knapsack_optimize", "extform.build_system",
          "extform.weight_edge_costs", "extform.dual_optimize")


class Book:
    """What a run has attempted, measured and found wrong."""

    def __init__(self) -> None:
        self.samples = {p: [] for p in PATHS}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.verified = 0
        self.timed_s = 0.0
        self.counts: dict = {}        # item id -> size counts seen the first time
        self.first = None             # (item, outputs, query circuit) for parity

    def fail(self, what: str, msg: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{what}: {msg}")


def _reference_loop() -> int:
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return acc


class Speed:
    """Host speed, sampled between items.

    On a shared host the speed of pure-Python code drifts by tens of
    percent over seconds, alike for the workload and for a fixed loop.
    Every reported time is therefore multiplied by factor(), the nominal
    time of the reference loop over its median time in this run: drift
    cancels, while a change to nnfopt shows in full, since the loop runs
    none of its code.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last < SPEED_EVERY_S:
            return
        for _ in range(3):
            t0 = perf_counter()
            _reference_loop()
            self.samples.append(perf_counter() - t0)
        self._last = perf_counter()

    def factor(self) -> float:
        return NOMINAL_LOOP_S / quantile(self.samples, 0.5)


def run_item(item, ref: dict, polys: tuple, tr, book: Book) -> float:
    """Run one item's paths, check them, and return its timed seconds."""
    tr.instance = item.id
    lat, out, msgs = {}, {}, {}          # msgs: path -> first failure
    attempts = dict.fromkeys(PATHS, 0)

    def timed(path, fn, *args):
        t0 = perf_counter()
        try:
            out[path] = tr.call("path." + path, fn, tr, *args)
        except Exception:  # a failing query is counted, and the run goes on
            msgs[path] = traceback.format_exc().strip().splitlines()[-1]
            return None
        lat.setdefault(path, []).append(perf_counter() - t0)
        return out[path]

    solve_poly, query_poly = polys
    checks = {
        "solve": lambda: oracle.check_solve(item, ref, solve_poly, out["solve"][1],
                                            workloads.LABS_W),
        "topk": lambda: oracle.check_topk(ref, query_poly, out["topk"]),
        "card": lambda: oracle.check_card(item, ref, query_poly, out["card"][1]),
        "knapsack": lambda: oracle.check_knapsack(item, ref, query_poly,
                                                  out["knapsack"][1]),
        "extform": lambda: oracle.check_extform(ref, out["extform"][2]),
    }

    def check(path):
        attempts[path] += 1
        if msgs.get(path) is None:
            msgs[path] = checks[path]() if path in out else "not run: no compiled circuit"

    solved = timed("solve", pipeline.solve, item.solve_text)
    check("solve")
    if item.query_text == item.solve_text:
        comp = solved[0] if solved else None
    else:
        # a separate query instance is compiled outside every path latency
        comp = timed("prep", pipeline.compile_text, item.query_text)
    queries = (("topk", pipeline.topk, (item.k,)),
               ("card", pipeline.card, (item.card_sums,)),
               ("knapsack", pipeline.knapsack, (item.knap_coeffs, item.knap_bounds)),
               ("extform", pipeline.extended, ()))
    for _ in range(item.query_repeats):
        for path, fn, args in queries:
            if comp is not None:
                timed(path, fn, comp, *args)
            check(path)

    counts: dict = {}

    def add(key, n):
        counts[key] = counts.get(key, 0) + n

    for compiled in (solved[0] if solved else None, out.get("prep")):
        if compiled is not None:
            add("cnf.clauses", len(compiled.formula.clauses))
            if compiled.decomposition is not None:
                add("hypergraph.minfill_width", compiled.decomposition.width)
            add("compiler.nodes", compiled.circuit.node_count)
            add("compiler.edges", compiled.circuit.edge_count)
    if "card" in out:
        add("transforms.card_edges", out["card"][0].edge_count)
    if "knapsack" in out:
        add("transforms.knapsack_edges", out["knapsack"][0].edge_count)
    if "extform" in out:
        add("circuit.normal_edges", out["extform"][0].edge_count)
        add("extform.rows", len(out["extform"][1].rows))
    for _name, result in tr.take_results():
        add("circuit.sbf_edges", result.edge_count)
    seen = book.counts.setdefault(item.id, {})
    for key, n in counts.items():
        if seen.setdefault(key, n) != n and msgs.get(COUNT_PATH[key]) is None:
            msgs[COUNT_PATH[key]] = f"{key} was {seen[key]} and is now {n}"

    for path in PATHS:
        book.attempted += attempts[path]
        if msgs.get(path) is not None:
            book.fail(f"{item.id} {path}", msgs[path])
    for path, seconds in lat.items():
        if path in book.samples:
            book.samples[path].extend(seconds)
    if not any(msgs.get(p) for p in PATHS):
        book.verified += 1
    if book.first is None:
        book.first = (item, out, comp)
    total = sum(sum(seconds) for seconds in lat.values())
    book.timed_s += total
    return total


# ---------------------------------------------------------------------------
# product parity


def _run_cli(argv: list, text: str) -> tuple[int, str]:
    out, old_stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def _point_text(point: dict) -> str:
    return " ".join(f"v{v}={point[v]}" for v in sorted(point))


def _optimum_text(parsed, answer) -> str:
    return f"optimum {parsed.report_value(answer.value)}\npoint {_point_text(answer.point)}\n"


def _lp_text(parsed, system) -> str:
    """The LP file `nnfopt extform --scale-objective` writes for this system."""
    profits = parsed.instance.profit
    factor = math.lcm(*(p.denominator for p in profits)) if profits else 1
    objective = {("x", cnf.CnfVariable("y", i)): p * factor for i, p in enumerate(profits)}
    comment = (f"objective scaled by {factor}; " if factor != 1 else "") + \
        f"declared sense {parsed.sense}, constant offset {parsed.offset}"
    return extform.to_lp_text(system, objective, sense="max", comment=comment)


def parity(book: Book) -> float:
    """Send the first item through nnfopt.cli.main and require the CLI to
    print what the benchmark's own pipeline computed.  Returns the
    seconds the CLI's solve took."""
    item, out, comp = book.first
    lo, hi = item.knap_bounds
    knap_arg = f"{lo}:{hi}:" + ",".join(str(c) for c in item.knap_coeffs)
    commands = (
        ("solve", ["solve", "-"], item.solve_text,
         lambda: _optimum_text(out["solve"][0].parsed, out["solve"][1])),
        ("topk", ["topk", "--k", str(item.k), "-"], item.query_text,
         lambda: "".join(f"value {comp.parsed.report_value(a.value)} point "
                         f"{_point_text(a.point)}\n" for a in out["topk"])),
        ("card", ["card", "--set", ",".join(map(str, item.card_sums)), "-"],
         item.query_text, lambda: _optimum_text(comp.parsed, out["card"][1])),
        ("knapsack", ["solve", "--knapsack", knap_arg, "-"], item.query_text,
         lambda: _optimum_text(comp.parsed, out["knapsack"][1])),
        ("extform", ["extform", "--scale-objective", "-"], item.query_text,
         lambda: _lp_text(comp.parsed, out["extform"][1])),
    )
    cli_solve_s = 0.0
    for name, argv, text, expected in commands:
        book.attempted += 1
        t0 = perf_counter()
        try:
            code, got = _run_cli(argv, text)
        except Exception as exc:  # the CLI should exit with a code, never raise
            book.fail(f"parity {name}", f"nnfopt {' '.join(argv)} raised {exc!r}")
            continue
        if name == "solve":
            cli_solve_s = perf_counter() - t0
        try:
            want = expected()
        except (KeyError, TypeError, AttributeError) as exc:
            book.fail(f"parity {name}", f"the pipeline has no result to compare ({exc!r})")
            continue
        if code != 0 or got != want:
            book.fail(f"parity {name}", f"nnfopt {' '.join(argv)} exit {code} printed "
                                        f"{got[:120]!r}, pipeline gives {want[:120]!r}")
    return cli_solve_s


# ---------------------------------------------------------------------------
# size counts across runs of one seed


def _code_digest() -> str:
    h = hashlib.sha256()
    for sub in (os.path.join("src", "nnfopt"), "perfbench"):
        folder = os.path.join(ROOT, sub)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_counts_across_runs(book: Book, workload: str, seed: int) -> None:
    """Compare size counts with an earlier run of this seed and code, kept
    under .perfbench_state in the checkout; any difference is a failure."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"counts-{workload}-{seed}-{_code_digest()}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        earlier = {}
    for item_id, counts in book.counts.items():
        prev = earlier.setdefault(item_id, {})
        book.attempted += 1
        diff = sorted(k for k in counts if k in prev and prev[k] != counts[k])
        if diff:
            book.fail(f"{item_id} counts", f"{diff} differ from an earlier run of this seed")
        for k, v in counts.items():
            prev.setdefault(k, v)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(earlier, fh, sort_keys=True)


# ---------------------------------------------------------------------------


def quantile(xs: list, q: float) -> float:
    """Linear interpolation between order statistics."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(samples: int) -> float:
    """0.9 where a run has at least 100 samples of a path, so that ten lie
    above it.  With fewer there is no p90 to report, and the metric repeats
    the median, so that every workload still reports every metric."""
    return 0.9 if samples >= 100 else 0.5


def count_totals(book: Book, items) -> dict:
    totals = {key: 0 for key in COUNT_PATH}
    for item in items:
        for key, n in book.counts.get(item.id, {}).items():
            totals[key] += n
    return totals


def measure(items, refs, polys, seconds: float, speed: Speed) -> tuple[Book, dict]:
    book = Book()
    tr = spans.Untraced()
    deadline = perf_counter() + seconds
    i = 0
    while i < len(items) or perf_counter() < deadline:
        item = items[i % len(items)]
        speed.sample()
        run_item(item, refs[item.id], polys[item.id], tr, book)
        i += 1
    f = speed.factor()
    metrics = {}
    for path in PATHS:
        xs = book.samples[path]
        if xs:
            metrics[f"{path}_s.p50"] = (quantile(xs, 0.5) * f, len(xs))
            metrics[f"{path}_s.p90"] = (quantile(xs, tail_quantile(len(xs))) * f, len(xs))
    metrics["instances_per_s"] = (book.verified / (book.timed_s * f), book.verified)
    metrics["circuit_edges"] = (count_totals(book, items)["compiler.edges"], len(items))
    return book, metrics


def measure_traced(items, refs, polys, seconds: float, speed: Speed,
                   spans_path: str) -> tuple[Book, dict]:
    book = Book()
    deadline = perf_counter() + seconds
    untraced, traced = [], []
    while True:
        # each item runs untraced and then traced, so drift in machine speed
        # over a round reaches both sides alike
        tr = spans.Tracer()
        plain = with_spans = 0.0
        for item in items:
            speed.sample()
            plain += run_item(item, refs[item.id], polys[item.id], spans.Untraced(), book)
            with spans.patched(tr):
                with_spans += run_item(item, refs[item.id], polys[item.id], tr, book)
        untraced.append(plain)
        traced.append((with_spans, tr.self_times()))
        if perf_counter() >= deadline:
            break
    # tracemalloc slows the probed calls several times over, so memory is
    # probed on one item: the one whose compiled circuit is largest
    largest = max(items, key=lambda it: book.counts[it.id].get("compiler.edges", 0))
    probe = spans.MemoryProbe()
    run_item(largest, refs[largest.id], polys[largest.id], probe, book)
    tr.write(spans_path)

    f = speed.factor()
    rounds = len(traced)
    metrics = {}
    for name in LAYERS:
        calls = {st.get(name, (0.0, 0))[1] for _, st in traced}
        if len(calls) != 1:
            book.fail(f"{name} calls", f"differ between traced rounds: {sorted(calls)}")
        busy = [st.get(name, (0.0, 0))[0] for _, st in traced]
        metrics[f"{name}_s"] = (quantile(busy, 0.5) * f, rounds)
        metrics[f"{name}_calls"] = (max(calls), rounds)
    for key, n in count_totals(book, items).items():
        metrics[key] = (n, len(items))
    for key, mb in probe.peak_mb.items():
        metrics[key] = (mb, 1)
    glue = [sum(v[0] for k, v in st.items() if k.startswith("path.")) for _, st in traced]
    layers = [sum(v[0] for k, v in st.items() if not k.startswith("path.")) for _, st in traced]
    plain = quantile(untraced, 0.5) * f
    with_spans = quantile([t for t, _ in traced], 0.5) * f
    metrics["trace.untraced_s"] = (plain, len(untraced))
    metrics["trace.traced_s"] = (with_spans, rounds)
    metrics["trace.layers_s"] = (quantile(layers, 0.5) * f, rounds)
    metrics["trace.glue_s"] = (quantile(glue, 0.5) * f, rounds)
    metrics["trace.overhead_s"] = (with_spans - plain, rounds)
    metrics["trace.speed_factor"] = (f, len(speed.samples))
    return book, metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "reference", "measure"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    items = workloads.make_items(args.workload, args.seed)
    if args.mode == "probe":
        return 0
    if args.mode == "reference":
        refs = {item.id: oracle.references(item) for item in items}
        json.dump(refs, sys.stdout, default=str)
        return 0

    raw = json.load(sys.stdin)
    refs = {}
    for item_id, ref in raw.items():
        refs[item_id] = {k: (None if v is None else
                             [Fraction(x) for x in v] if isinstance(v, list) else Fraction(v))
                         for k, v in ref.items()}
    polys = {item.id: (oracle.read_poly(item.solve_text), oracle.read_poly(item.query_text))
             for item in items}
    speed = Speed()
    if args.trace:
        os.makedirs(STATE_DIR, exist_ok=True)
        spans_path = os.path.join(STATE_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        book, metrics = measure_traced(items, refs, polys, args.seconds, speed, spans_path)
    else:
        book, metrics = measure(items, refs, polys, args.seconds, speed)
    cli_solve_s = parity(book)
    check_counts_across_runs(book, args.workload, args.seed)
    if args.trace:
        metrics["cli.solve_s"] = (cli_solve_s * speed.factor(), 1)
        metrics["cli.solve_calls"] = (1, 1)
    else:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        metrics["verified_frac"] = (1 - book.failed / book.attempted, book.attempted)
    print(json.dumps({"attempted": book.attempted, "failed": book.failed,
                      "messages": book.messages, "speed_factor": speed.factor(),
                      "metrics": {k: {"value": v, "samples": n}
                                  for k, (v, n) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
