"""What the scripts/bench_*.py benchmark scripts share: the host probe,
a best-of timer, the case ladder and the recorder of their JSON files.

Import this module before the perfbench modules and the test families:
it puts ``perfbench/`` and ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import families  # noqa: E402
from nnfopt import gen_labs, parse_instance  # noqa: E402


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpu": model, "cpus": os.cpu_count()}


def best_of(repeat: int, fn, *args, before=None):
    """The minimum wall time of ``repeat`` calls of ``fn(*args)``, and the
    last call's result.  ``before()``, if given, runs ahead of each call,
    outside the timed region."""
    best = float("inf")
    for _ in range(repeat):
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def cases(labs=(), intervals=(), cycles=()):
    """(name, instance) for gen-labs n 3 with n in labs, then
    ``families.intervals(n, 0)`` with n in intervals, then
    ``families.shuffled_cycle_of_triples(n, n)`` with n in cycles, each
    built when it is reached."""
    for n in labs:
        yield f"gen-labs {n} 3", parse_instance(gen_labs(n, 3)).instance
    for n in intervals:
        yield f"intervals n={n}", families.intervals(n, 0)
    for n in cycles:
        yield f"shuffled cycle of triples n={n}", families.shuffled_cycle_of_triples(n, n)


def recorder(path, label: str, **header):
    """Open run ``label`` of the JSON file at ``path`` (created if missing)
    and set ``header``'s fields in it; return ``add(section, case, row)``,
    which stores row as ``runs[label][section][case]``, rewrites the file
    and returns row.

    Other labels, and the cases of this label that a run does not measure,
    stay as they are, and an interrupted run keeps the cases it finished.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    run = data.setdefault("runs", {}).setdefault(label, {})
    run.update(header)

    def add(section: str, case: str, row: dict) -> dict:
        run.setdefault(section, {})[case] = row
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return row

    return add
