"""Reference answers and the checks against them.

Nothing here goes through circuits.  Optimum, cardinality and top-k
values come from nnfopt's brute-force oracle, which evaluates the
polynomial at every point; knapsack optima come from the exhaustive sweep
below, since the oracle has no knapsack mode; point values are
re-evaluated from the instance text by this module's own reader; LABS
witnesses are scored by labs_energy.  Every check is an explicit
comparison that returns a message, so it still holds under `python -O`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from nnfopt.instances import brute_force, labs_energy, parse_instance

_CHUNK = 1 << 14


@dataclass(frozen=True)
class Poly:
    """An instance as read straight from its text."""

    sense: str
    offset: Fraction
    terms: tuple            # ((coefficient, ((vertex, bit), ...)), ...)
    vertices: tuple


def read_poly(text: str) -> Poly:
    sense, offset, terms = "max", Fraction(0), []
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0].startswith("#"):
            if toks[0] == "#minimize":
                sense = "min"
            continue
        lits = tuple((int(t.lstrip("~")[1:]), 0 if t.startswith("~") else 1)
                     for t in toks[1:])
        if lits:
            terms.append((Fraction(toks[0]), lits))
        else:
            offset += Fraction(toks[0])
    vertices = tuple(sorted({v for _, lits in terms for v, _ in lits}))
    return Poly(sense, offset, tuple(terms), vertices)


def declared_value(poly: Poly, point: dict) -> Fraction:
    total = poly.offset
    for coeff, lits in poly.terms:
        if all(point[v] == bit for v, bit in lits):
            total += coeff
    return total


def reported(poly: Poly, stored: Fraction) -> Fraction:
    """The declared-sense value of an optimum of the stored (maximized) polynomial."""
    return poly.offset + stored if poly.sense == "max" else poly.offset - stored


def knapsack_optimum(poly: Poly, coeffs: tuple, bounds: tuple) -> Optional[Fraction]:
    """Best stored-sense value over points whose load sum(coeffs[i] * bit_i)
    lies within bounds, by sweeping every point; None when none does."""
    n = len(poly.vertices)
    pos = {v: j for j, v in enumerate(poly.vertices)}
    den = math.lcm(*(c.denominator for c, _ in poly.terms)) if poly.terms else 1
    sign = 1 if poly.sense == "max" else -1
    scaled = [sign * int(c * den) for c, _ in poly.terms]
    weights = np.array(coeffs, dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64)
    best = None
    for start in range(0, 1 << n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        load = bits @ weights
        values = np.zeros(idx.size, dtype=np.int64)
        for s, (_, lits) in zip(scaled, poly.terms):
            hit = np.ones(idx.size, dtype=bool)
            for v, bit in lits:
                hit &= bits[:, pos[v]] == bit
            values += s * hit
        mask = (load >= bounds[0]) & (load <= bounds[1])
        if mask.any():
            top = int(values[mask].max())
            best = top if best is None else max(best, top)
    return None if best is None else Fraction(best, den)


def references(item) -> dict:
    """Stored-sense reference values for one workload item."""
    solve_inst = parse_instance(item.solve_text).instance
    query_inst = parse_instance(item.query_text).instance
    return {
        "solve": brute_force(solve_inst, None, 1)[0][1],
        "topk": [value for _, value in brute_force(query_inst, None, item.k)],
        "card": brute_force(query_inst, item.card_sums, 1)[0][1],
        "knapsack": knapsack_optimum(read_poly(item.query_text), item.knap_coeffs,
                                     item.knap_bounds),
    }


# ---------------------------------------------------------------------------
# checks: each returns None when the answer is right, else a message


def _point_message(poly: Poly, answer) -> Optional[str]:
    if answer.point is None:
        return "no witness point"
    if sorted(answer.point) != list(poly.vertices):
        return "witness point does not cover the vertices"
    got = declared_value(poly, answer.point)
    if got != reported(poly, answer.value):
        return f"point evaluates to {got}, reported {reported(poly, answer.value)}"
    return None


def check_solve(item, ref: dict, poly: Poly, answer, labs_w: Optional[int]) -> Optional[str]:
    if answer.value != ref["solve"]:
        return f"optimum {answer.value} != oracle {ref['solve']}"
    msg = _point_message(poly, answer)
    if msg is None and item.labs_perm is not None:
        bits = [answer.point[v] for v in item.labs_perm]
        energy = labs_energy(bits, labs_w)
        if energy != reported(poly, answer.value):
            msg = f"witness energy {energy} != reported {reported(poly, answer.value)}"
    return msg


def check_topk(ref: dict, poly: Poly, answers: list) -> Optional[str]:
    values = [a.value for a in answers]
    if values != ref["topk"]:
        return f"top-k values {values} != oracle {ref['topk']}"
    points = set()
    for a in answers:
        msg = _point_message(poly, a)
        if msg is not None:
            return msg
        points.add(tuple(sorted(a.point.items())))
    if len(points) != len(answers):
        return "top-k repeats a point"
    return None


def check_card(item, ref: dict, poly: Poly, answer) -> Optional[str]:
    if answer.value != ref["card"]:
        return f"cardinality optimum {answer.value} != oracle {ref['card']}"
    msg = _point_message(poly, answer)
    if msg is None and sum(answer.point.values()) not in item.card_sums:
        msg = "point violates the cardinality constraint"
    return msg


def check_knapsack(item, ref: dict, poly: Poly, answer) -> Optional[str]:
    if answer.value != ref["knapsack"]:
        return f"knapsack optimum {answer.value} != sweep {ref['knapsack']}"
    msg = _point_message(poly, answer)
    if msg is None:
        load = sum(c * answer.point[v] for c, v in zip(item.knap_coeffs, poly.vertices))
        if not item.knap_bounds[0] <= load <= item.knap_bounds[1]:
            msg = f"point load {load} outside {item.knap_bounds}"
    return msg


def check_extform(ref: dict, dual_value) -> Optional[str]:
    if dual_value != ref["topk"][0]:
        return f"dual optimum {dual_value} != oracle optimum {ref['topk'][0]}"
    return None
