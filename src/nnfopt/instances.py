"""Instance text format, cardinality specs, brute-force oracle and LABS generator.

A polynomial file has one monomial per line, `<coeff> <term>...`, where a
term is v<id> for a plain variable or ~v<id> for its complement, plus
optional # directives.  The oracle evaluates the polynomial at every
binary point directly from its terms, never through circuits, so it can
certify the whole pipeline.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .hypergraph import Hypergraph, LiteralInstance

log = logging.getLogger(__name__)

ORACLE_MAX_VERTICES = 24
# a decimal exponent costs its magnitude in digits to expand exactly; this
# is as many digits as int() reads from text by default
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)$")
_CHUNK_BITS = 16


class ParseError(ValueError):
    """Malformed instance text."""


class GuardViolation(RuntimeError):
    """A size guard refused the operation."""


def _integer(x, what: str) -> int:
    """x as an int; ValueError unless x is integral, rather than truncating."""
    if int(x) != x:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class CardinalitySpec:
    """Counted variable subset and the admissible sums of their bits."""

    variables: tuple
    sums: frozenset

    def __init__(self, variables: Iterable, sums: Iterable[int]):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "sums", frozenset(_integer(s, "sum") for s in sums))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("counted variables must be distinct")
        bad = [s for s in self.sums if not 0 <= s <= len(self.variables)]
        if bad:
            raise ValueError(f"sums out of range: {sorted(bad)}")


@dataclass(frozen=True)
class ParsedInstance:
    instance: LiteralInstance
    offset: Fraction
    sense: str                      # 'max' or 'min'
    card_sums: Optional[frozenset]  # admissible bit-count sums over all vertices

    def report_value(self, inner: Fraction) -> Fraction:
        """Map an optimum of the stored (maximized) polynomial back to the
        declared sense, offset included."""
        return self.offset + inner if self.sense == "max" else self.offset - inner


def parse_instance(text: str) -> ParsedInstance:
    """Parse polynomial text; minimization is stored with negated profits."""
    sense = "max"
    card: Optional[frozenset] = None
    offset = Fraction(0)
    terms: list[tuple[dict, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split(None, 1)
            directive = fields[0].lower() if fields else ""
            if directive == "maximize":
                sense = "max"
            elif directive == "minimize":
                sense = "min"
            elif directive == "card":
                if len(fields) < 2:
                    raise ParseError(f"line {lineno}: #card needs a sum list")
                try:
                    card = frozenset(int(tok) for tok in fields[1].split(","))
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad #card list") from exc
                if any(s < 0 for s in card):
                    raise ParseError(f"line {lineno}: #card sums must be nonnegative")
            else:
                raise ParseError(f"line {lineno}: unknown directive #{directive}")
            continue
        tokens = line.split()
        try:
            exponent = _EXPONENT.search(tokens[0])
            if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_EXPONENT:
                raise ValueError("exponent out of range")
            coeff = Fraction(tokens[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad coefficient {tokens[0]!r}") from exc
        sigma: dict = {}
        for tok in tokens[1:]:
            body = tok[1:] if tok.startswith("~") else tok
            try:
                v = int(body[1:]) if body.startswith("v") and body[1:].isdecimal() else 0
            except ValueError:      # more digits than int() reads from text
                v = 0
            if v <= 0:
                raise ParseError(f"line {lineno}: bad term {tok!r}")
            if v in sigma:
                raise ParseError(f"line {lineno}: vertex v{v} repeated in one term")
            sigma[v] = 0 if tok.startswith("~") else 1
        if not sigma:
            offset += coeff
            continue
        if coeff == 0:
            log.warning("line %d: monomial with zero coefficient kept", lineno)
        terms.append((sigma, coeff))

    vertices = sorted({v for sigma, _ in terms for v in sigma})
    edges = [frozenset(sigma) for sigma, _ in terms]
    h = Hypergraph(vertices, edges)
    sign = 1 if sense == "max" else -1
    inst = LiteralInstance(
        h,
        tuple(dict(sigma) for sigma, _ in terms),
        tuple(sign * coeff for _, coeff in terms),
    )
    if card is not None and any(s > len(vertices) for s in card):
        raise ParseError("#card sum exceeds the vertex count")
    return ParsedInstance(inst, offset, sense, card)


def format_instance(parsed: ParsedInstance) -> str:
    """Inverse of parse_instance, up to whitespace."""
    inst = parsed.instance
    sign = 1 if parsed.sense == "max" else -1
    lines = []
    if parsed.sense == "min":
        lines.append("#minimize")
    if parsed.card_sums is not None:
        lines.append("#card " + ",".join(str(s) for s in sorted(parsed.card_sums)))
    if parsed.offset != 0:
        lines.append(str(parsed.offset))
    for i in range(len(inst.hypergraph.edges)):
        coeff = sign * inst.profit[i]
        toks = [str(coeff)]
        for v in inst.hypergraph.edge_vertices(i):
            toks.append(f"v{v}" if inst.sigma[i][v] == 1 else f"~v{v}")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# brute-force oracle


def _term_columns(inst: LiteralInstance, bits):
    """Value of each monomial's product at every point of the chunk, as an
    int64 array with one row per monomial; bits has one row per vertex."""
    import numpy as np
    npoints = bits.shape[1]
    h = inst.hypergraph
    pos = {v: j for j, v in enumerate(h.vertices)}
    out = np.zeros((len(h.edges), npoints), dtype=np.int64)
    for i, e in enumerate(h.edges):
        acc = np.ones(npoints, dtype=np.int64)
        for v in sorted(e):
            col = bits[pos[v]]
            acc &= col if inst.sigma[i][v] == 1 else 1 - col
        out[i] = acc
    return out


def brute_force(inst: LiteralInstance,
                spec: Union[CardinalitySpec, Iterable[int], None] = None,
                k: int = 1) -> list[tuple[dict, Fraction]]:
    """Top-k feasible points by direct polynomial evaluation.

    Points are ranked by value, ties broken toward lexicographically
    smaller points (vertex order, 0 before 1).  spec restricts the bit
    count of the counted vertices (all vertices when a plain sum set is
    given).  Guarded to 24 vertices.  numpy is imported here, not with the
    module, so the CLI starts without it.
    """
    import numpy as np

    h = inst.hypergraph
    n = len(h.vertices)
    if n > ORACLE_MAX_VERTICES:
        raise GuardViolation(f"oracle limited to {ORACLE_MAX_VERTICES} vertices, got {n}")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    counted_pos: Optional[list[int]] = None
    sums: Optional[frozenset] = None
    if isinstance(spec, CardinalitySpec):
        pos = {v: j for j, v in enumerate(h.vertices)}
        missing = set(spec.variables) - pos.keys()
        if missing:
            raise ValueError(f"counted variables not in universe: {sorted(missing, key=repr)}")
        counted_pos = sorted(pos[v] for v in spec.variables)
        sums = spec.sums
    elif spec is not None:
        counted_pos = list(range(n))
        sums = frozenset(_integer(s, "sum") for s in spec)

    denom = math.lcm(*(p.denominator for p in inst.profit)) if inst.profit else 1
    scaled = [int(p * denom) for p in inst.profit]
    # int64 holds every partial sum below 2**63; past that, exact Python ints
    scaled = np.array(scaled, dtype=np.int64 if sum(map(abs, scaled)) < 1 << 63 else object)

    total = 1 << n
    chunk = min(total, 1 << _CHUNK_BITS)
    candidates: list[tuple] = []  # (-value, index)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = np.empty((n, idx.size), dtype=np.int64)
        for j in range(n):
            bits[j] = (idx >> (n - 1 - j)) & 1
        values = scaled @ _term_columns(inst, bits) if len(h.edges) else \
            np.zeros(idx.size, dtype=np.int64)
        if sums is not None:
            counts = (bits[counted_pos].sum(axis=0) if counted_pos
                      else np.zeros(idx.size, dtype=np.int64))
            mask = np.isin(counts, np.array(sorted(sums), dtype=np.int64))
            keep = np.nonzero(mask)[0]
        else:
            keep = np.arange(idx.size)
        if keep.size == 0:
            continue
        order = keep[np.argsort(-values[keep], kind="stable")][:k]
        candidates.extend((-int(values[i]), int(idx[i])) for i in order)
    candidates.sort()
    out = []
    for negval, index in candidates[:k]:
        point = {v: (index >> (n - 1 - j)) & 1 for j, v in enumerate(h.vertices)}
        out.append((point, Fraction(-negval, denom)))
    return out


# ---------------------------------------------------------------------------
# low-autocorrelation binary sequences


def labs_energy(bits: Iterable[int], w: int) -> int:
    """Reference energy: sum over shifts k=1..w of the squared correlation
    of the +-1 sequence with its k-shift."""
    s = [2 * b - 1 for b in bits]
    n = len(s)
    total = 0
    for kk in range(1, w + 1):
        c = sum(s[i] * s[i + kk] for i in range(n - kk))
        total += c * c
    return total


def gen_labs(n: int, w: int) -> str:
    """Low-autocorrelation instance over n binary variables, shifts 1..w,
    fully expanded into multilinear monomials, to be minimized."""
    if not (1 <= w < n):
        raise GuardViolation("gen-labs requires 1 <= w < n")
    smono: dict[frozenset, int] = {}
    for kk in range(1, w + 1):
        supports = [frozenset((i, i + kk)) for i in range(1, n - kk + 1)]
        for a in supports:
            for b in supports:
                key = a ^ b
                smono[key] = smono.get(key, 0) + 1
    xmono: dict[frozenset, int] = {}
    for support, coeff in smono.items():
        base = sorted(support)
        d = len(base)
        for r in range(d + 1):
            for subset in itertools.combinations(base, r):
                xmono[frozenset(subset)] = xmono.get(frozenset(subset), 0) + \
                    coeff * (2 ** r) * ((-1) ** (d - r))
    lines = ["#minimize"]
    const = xmono.pop(frozenset(), 0)
    if const:
        lines.append(str(const))
    for support in sorted(xmono, key=lambda s: (len(s), sorted(s))):
        coeff = xmono[support]
        if coeff == 0:
            continue
        lines.append(str(coeff) + " " + " ".join(f"v{v}" for v in sorted(support)))
    return "\n".join(lines) + "\n"
