"""Seeded instance families shared by the tests and the scripts.

The interval families are hypergraphs on a path of vertices, so they are
beta-acyclic and the auto pipeline takes the ordered encoding; the
shuffled cycle of triples is not, so it takes the basic encoding.
"""

import random
from fractions import Fraction

from nnfopt import Hypergraph, LiteralInstance, parse_instance


def intervals(n: int, seed: int) -> LiteralInstance:
    """2n intervals of 2-6 consecutive vertices on the path 0..n-1, each
    with random polarities and a nonzero integer profit in -9..9."""
    rng = random.Random(seed)
    edges, sigma, profit = [], [], []
    for _ in range(2 * n):
        size = rng.randint(2, min(6, n))
        start = rng.randint(0, n - size)
        edge = range(start, start + size)
        edges.append(edge)
        sigma.append({v: rng.randint(0, 1) for v in edge})
        profit.append(Fraction(rng.choice([i for i in range(-9, 10) if i])))
    return LiteralInstance(Hypergraph(range(n), edges), tuple(sigma), tuple(profit))


def shuffled_cycle_of_triples(n: int, seed: int) -> LiteralInstance:
    """The n triples {i, i+1, i+2} (indices mod n) of a cycle over n
    vertices under a seeded shuffle of the labels, each a plain monomial
    with a profit in {-3, -2, -1, 1, 2, 3}."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [{label[i], label[(i + 1) % n], label[(i + 2) % n]} for i in range(n)]
    profit = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in edges]
    return LiteralInstance.plain(Hypergraph(range(n), edges), profit)


def interval_instance(rng, n: int = 16, count: int = 30):
    """An interval hypergraph on a path of n vertices, as in the benchmark's
    beta-intervals items: lengths 1..5 in turn, random signs and nonzero
    rational profits."""
    lines = []
    for j in range(count):
        length = 1 + j % 5
        start = rng.randint(1, n - length + 1)
        d = rng.randint(1, 4)
        coeff = Fraction(rng.choice([i for i in range(-9 * d, 9 * d + 1) if i]), d)
        lits = [f"v{v}" if rng.randint(0, 1) else f"~v{v}"
                for v in range(start, start + length)]
        lines.append(" ".join([str(coeff), *lits]))
    return parse_instance("\n".join(lines) + "\n").instance
