"""LABS ladder: the largest n for which `gen-labs n 3 | nnfopt solve -`
finishes within 60 s.

Informational, not a gated workload.  Steps n up from 10 and stops at the
first run that times out; every optimum that finishes is checked against
the brute-force oracle.  Writes perfbench/labs_ladder.json with the
machine's core count and Python version.

Run from the repository root:  python3 perfbench/ladder.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET_S = 60
W = 3
FIRST_N = 10


def _nnfopt(args, text=None, timeout=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, "-m", "nnfopt.cli", *args], input=text,
                          capture_output=True, text=True, env=env, timeout=timeout,
                          check=True)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nnfopt import brute_force, parse_instance

    rows = []
    n = FIRST_N
    while True:
        text = _nnfopt(["gen-labs", str(n), str(W)]).stdout
        t0 = time.perf_counter()
        try:
            out = _nnfopt(["solve", "-"], text=text, timeout=BUDGET_S).stdout
        except subprocess.TimeoutExpired:
            rows.append({"n": n, "seconds": None, "status": f"timeout > {BUDGET_S} s"})
            break
        seconds = time.perf_counter() - t0
        parsed = parse_instance(text)
        [(_point, best)] = brute_force(parsed.instance, None, 1)
        energy = out.splitlines()[0].split()[1]
        ok = energy == str(parsed.report_value(best))
        rows.append({"n": n, "seconds": round(seconds, 2), "energy": energy,
                     "status": "ok" if ok else "wrong optimum"})
        print(rows[-1], flush=True)
        if not ok:
            break
        n += 1
    solved = [r["n"] for r in rows if r["status"] == "ok"]
    record = {
        "command": f"gen-labs n {W} | nnfopt solve -  (fresh interpreter per n)",
        "budget_s": BUDGET_S,
        "largest_n_within_budget": max(solved) if solved else None,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "ladder": rows,
    }
    with open(os.path.join(ROOT, "perfbench", "labs_ladder.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0 if solved and rows[-1]["status"] != "wrong optimum" else 1


if __name__ == "__main__":
    sys.exit(main())
