"""Seeded inputs for the three workloads.

Each workload is a list of items.  An item names the instance the solve
path runs on and the instance the four query paths (top-k, cardinality,
knapsack, extended formulation) run on, with the query parameters.  The
same seed gives the same items, byte for byte; the program under test
only ever sees the generated instance text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from nnfopt.instances import gen_labs

WORKLOADS = ("labs-dense", "corpus-mixed", "beta-intervals")

CORPUS_ITEMS = 600
INTERVAL_ITEMS = 60
INTERVAL_VERTICES = 16
INTERVALS = 30            # per instance, of lengths 1, 2, ..., 5 in turn
LABS_N, LABS_QUERY_N, LABS_W = 12, 8, 3
LABS_ITEMS = 4
LABS_QUERY_REPEATS = 2


@dataclass(frozen=True)
class Item:
    id: str
    solve_text: str
    query_text: str           # the solve instance itself, or a separate one for the query paths
    k: int
    card_sums: tuple          # admissible counts of ones over all vertices
    knap_coeffs: tuple        # one integer per vertex, in increasing vertex order
    knap_bounds: tuple        # (lower, upper)
    labs_perm: Optional[tuple] = None  # relabelled vertex of each original LABS position
    query_repeats: int = 1    # times the four query paths run on the item


def _rational(rng: random.Random) -> Fraction:
    d = rng.randint(1, 4)
    return Fraction(rng.choice([i for i in range(-9 * d, 9 * d + 1) if i]), d)


def _text(terms) -> str:
    """terms: (coefficient, ((vertex, bit), ...)) in file order."""
    lines = []
    for coeff, lits in terms:
        toks = [f"v{v}" if bit else f"~v{v}" for v, bit in lits]
        lines.append(" ".join([str(coeff)] + toks))
    return "\n".join(lines) + "\n"


def _vertices(terms) -> list:
    return sorted({v for _, lits in terms for v, _ in lits})


def _query_params(rng: random.Random, nverts: int, max_coeff: int):
    sums = tuple(sorted(rng.sample(range(nverts + 1), rng.randint(1, nverts + 1))))
    coeffs = tuple(rng.randint(1, max_coeff) for _ in range(nverts))
    total = sum(coeffs)
    lower = rng.randint(0, total // 2)
    # a window at least max_coeff wide always holds some partial sum, so
    # every knapsack query is feasible
    upper = min(total, lower + max(max_coeff, total // 4))
    return sums, coeffs, (lower, upper)


def _corpus(rng: random.Random) -> list:
    """The acceptance-corpus distribution: at most 10 vertices, 15 edges of
    size at most 5, random literal signs, rational profits.  Vertex and
    edge counts sweep their whole grid, so every seed draws the same mix
    of sizes and seeds differ only in the edges, signs and profits."""
    items = []
    for idx in range(CORPUS_ITEMS):
        nv, ne = 1 + idx % 10, 1 + (idx // 10) % 15
        terms = []
        for _ in range(ne):
            e = rng.sample(range(1, nv + 1), rng.randint(1, min(5, nv)))
            terms.append((_rational(rng), tuple((v, rng.randint(0, 1)) for v in sorted(e))))
        text = _text(terms)
        sums, coeffs, bounds = _query_params(rng, len(_vertices(terms)), 3)
        items.append(Item(f"corpus-{idx}", text, text, 5, sums, coeffs, bounds))
    return items


def _intervals(rng: random.Random) -> list:
    """Random interval hypergraphs on a path of vertices: beta-acyclic, so
    the auto path takes the ordered encoding.  The interval count and
    lengths are fixed and only positions, signs and profits are random, so
    circuit sizes vary little from instance to instance and seed to seed."""
    items = []
    n = INTERVAL_VERTICES
    for idx in range(INTERVAL_ITEMS):
        terms = []
        for j in range(INTERVALS):
            length = 1 + j % 5
            a = rng.randint(1, n - length + 1)
            terms.append((_rational(rng),
                          tuple((v, rng.randint(0, 1)) for v in range(a, a + length))))
        rng.shuffle(terms)
        text = _text(terms)
        sums, coeffs, bounds = _query_params(rng, len(_vertices(terms)), 2)
        items.append(Item(f"interval-{idx}", text, text, 10, sums, coeffs, bounds))
    return items


def _relabel(text: str, perm: dict, rng: random.Random) -> str:
    """Rename vertex i to perm[i] and shuffle the monomial lines; directives
    and the constant stay in front."""
    head, body = [], []
    for line in text.splitlines():
        toks = line.split()
        if line.startswith("#") or len(toks) == 1:
            head.append(line)
        else:
            body.append(" ".join([toks[0]] + [f"v{perm[int(t[1:])]}" for t in toks[1:]]))
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


def _labs(rng: random.Random) -> list:
    """LABS at n=12, w=3 under seeded relabellings and monomial orders, for
    the solve path.  The query paths run on the n=8 member of the family,
    because at n=12 top-k alone takes about 24 s.  That instance is left
    as generated: relabelling it moves top-k time by up to 2x, which would
    swamp the code's own share in a run's few samples.  Each item runs the
    query paths twice, so that a run holds as many query samples as it
    can without losing too many solve samples."""
    query_text = gen_labs(LABS_QUERY_N, LABS_W)
    items = []
    for idx in range(LABS_ITEMS):
        order = list(range(1, LABS_N + 1))
        rng.shuffle(order)
        perm = {i + 1: order[i] for i in range(LABS_N)}
        solve_text = _relabel(gen_labs(LABS_N, LABS_W), perm, rng)
        sums, coeffs, bounds = _query_params(rng, LABS_QUERY_N, 2)
        items.append(Item(f"labs-{idx}", solve_text, query_text, 5, sums, coeffs, bounds,
                          tuple(order), LABS_QUERY_REPEATS))
    return items


def make_items(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "labs-dense":
        return _labs(rng)
    if workload == "corpus-mixed":
        return _corpus(rng)
    if workload == "beta-intervals":
        return _intervals(rng)
    raise ValueError(f"unknown workload {workload!r}")
