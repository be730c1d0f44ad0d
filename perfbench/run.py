"""nnfopt benchmark: end-to-end latencies of the five query paths, and a
traced run that splits them by layer.

Run from the repository root, one workload at a time:

  for w in labs-dense corpus-mixed beta-intervals; do
      python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
  done

Workloads, metrics and bounds are declared in BENCHMARK.json.  Each run:
  1. times several fresh processes from start until the workload's items
     are built, and reports the median as setup_s;
  2. computes reference answers in a separate process;
  3. runs the workload in a fresh process with PYTHONHASHSEED pinned
     (worker.py): a closed loop with one client, one instance at a time,
     every answer checked against the references and the CLI.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end_to_end metrics, or the per_layer ones with
--trace 1); the lines before it print each metric with its sample count.
The exit code is nonzero, and no JSON is printed, when the library cannot
be found or a process fails.

Reported seconds are wall seconds scaled to a nominal host speed (see
worker.Speed), so that drift in a shared host's speed cancels.  A `.p90`
metric is the 90th percentile where the run has at least 100 samples of
that path; with fewer it repeats the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
RUN_LIMIT_S = 170


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(ROOT, "src", "nnfopt", "__init__.py")):
        return _fail("src/nnfopt not found; run from the root of an nnfopt checkout")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def worker(mode, extra=(), **kw):
        left = RUN_LIMIT_S - (perf_counter() - started)
        return subprocess.run([sys.executable, WORKER, mode, *common, *extra], env=env,
                              cwd=ROOT, check=True, timeout=max(left, 1), **kw)

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = perf_counter()
            worker("probe")
            setups.append(perf_counter() - t0)
        refs = worker("reference", capture_output=True, text=True).stdout
        result = worker("measure", ["--seconds", str(args.seconds), "--trace",
                                    str(args.trace)],
                        input=refs, stdout=subprocess.PIPE, text=True).stdout
    except subprocess.CalledProcessError as exc:
        return _fail(f"worker {exc.cmd[2]} exited with {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return _fail(f"worker {exc.cmd[2]} ran past the {RUN_LIMIT_S} s limit")

    raw = json.loads(result.strip().splitlines()[-1])
    found = raw["metrics"]
    found["setup_s"] = {"value": statistics.median(setups) * raw["speed_factor"],
                        "samples": len(setups)}
    missing = [m["name"] for m in declared if m["name"] not in found]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    for msg in raw["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)

    metrics = {}
    for m in declared:
        value, samples = found[m["name"]]["value"], found[m["name"]]["samples"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:15s} {m['name']:34s} {value:>14.6g} {m['unit']:8s} n={samples}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
