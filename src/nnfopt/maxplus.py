"""Max-plus queries over decision-DNNF circuits.

Weights live in the semiring (Q with -infinity, max, +): an unsatisfiable
circuit has value -infinity, satisfiable ones an exact rational optimum.
Both queries run in scaled integers and count in regrets, what a model's
literals cost against each variable's better bit, and make rationals
only for the answers they return.  The single-optimum query runs
directly on non-smooth circuits by keeping, for every node, the least
regret of its models: that of its best model completed greedily on all
remaining variables.  The top-k query is a semiring over
circuit.smooth_fold: a node's value is its k best models over the
variables it mentions, one int per model, so that a product is an
integer sum and a merge a sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from math import lcm
from typing import Mapping, Optional, Sequence

from .circuit import OR, NnfCircuit, check_structure, evaluate, mask_bits, smooth_fold
from .cnf import instance_layout
from .hypergraph import LiteralInstance

NEG_INF = float("-inf")
_BITS = bytes.maketrans(b"01", b"\0\1")     # a bit string's bytes to 0s and 1s


class WeightFunction:
    """Exact rational weight per (variable, bit), total on a universe;
    integral weights are kept as ints, so integer passes convert none."""

    def __init__(self, universe: Sequence, table: Mapping) -> None:
        self.universe = tuple(universe)
        uset = set(self.universe)
        self._w = {}
        for (var, bit), val in table.items():
            if var not in uset:
                raise ValueError(f"weight on undeclared variable {var!r}")
            if bit not in (0, 1):
                raise ValueError("bit must be 0 or 1")
            val = Fraction(val)
            self._w[(var, bit)] = val.numerator if val.denominator == 1 else val
        for var in self.universe:
            self._w.setdefault((var, 0), 0)
            self._w.setdefault((var, 1), 0)

    def weight(self, var, bit) -> int | Fraction:
        return self._w[(var, int(bit))]

    def value_of(self, assignment: Mapping) -> Fraction:
        return sum((self._w[(v, int(assignment[v]))] for v in self.universe),
                   Fraction(0))

    def slack_bit(self, var) -> int:
        # prefers 0 on ties, so greedy completions lean lexicographically small
        return 0 if self._w[(var, 0)] >= self._w[(var, 1)] else 1

    @cached_property
    def _scaled_ints(self) -> tuple[int, dict]:
        """(scale, {var: (w0, w1)}): the weights times the lcm of their
        denominators, as ints.  The table never changes after __init__."""
        scale = lcm(*(val.denominator for val in self._w.values()))
        return scale, {var: (int(self._w[(var, 0)] * scale), int(self._w[(var, 1)] * scale))
                       for var in self.universe}


def weights_from_profits(inst: LiteralInstance) -> WeightFunction:
    """Edge variables earn their profit when set, everything else weighs 0."""
    layout = instance_layout(inst)
    table = {(y, 1): p for y, p in zip(layout.ys, inst.profit)}
    return WeightFunction(layout.universe, table)


@dataclass(frozen=True)
class Optimum:
    """Best weight and, when finite, a model attaining it."""

    value: object
    witness: Optional[dict]


def _regrets(c: NnfCircuit, w: WeightFunction):
    """The entry check and the integer weights of optimize and top_k.

    ValueError unless w's universe is c's and c is decomposable and
    deterministic.  Returns (scale, scaled total slack, regrets of
    positive and of negative literals by bit position).  Weights are
    scaled by the lcm of their denominators; a literal's regret is what it
    costs against its variable's better bit."""
    if set(w.universe) != set(c.variables):
        raise ValueError("weight universe must match the circuit universe")
    rep = check_structure(c)
    if not (rep.decomposable and rep.deterministic):
        raise ValueError("query needs a decomposable, deterministic circuit")
    scale, ints = w._scaled_ints
    total = 0
    r1, r0 = [], []
    for var in c.bit_variables:
        w0, w1 = ints[var]
        best = max(w0, w1)
        total += best
        r1.append(best - w1)
        r0.append(best - w0)
    return scale, total, r1, r0


def _planes(regrets: list) -> tuple:
    """(j, mask of the bit positions whose regret has bit j), j ascending:
    a literal block's regret is 2^j times its literals in mask, summed."""
    masks: dict = {}
    for i, r in enumerate(regrets):
        while r:
            low = r & -r
            j = low.bit_length() - 1
            masks[j] = masks.get(j, 0) | 1 << i
            r ^= low
    return tuple(sorted(masks.items()))


def _block_regret(a: int, b: int, planes1, planes0) -> int:
    """Scaled regret of the literal block with positive mask a, negative b."""
    acc = 0
    if a:
        for j, mask in planes1:
            acc += (a & mask).bit_count() << j
    if b:
        for j, mask in planes0:
            acc += (b & mask).bit_count() << j
    return acc


def optimize(c: NnfCircuit, w: WeightFunction) -> Optimum:
    """Maximum weight over the circuit's models, with witness.

    One bottom-up pass computes, per node, the least regret m(v) of a
    model of v (see _regrets), so that the total slack less m(v) is the
    best weight of a model of v extended greedily outside var(v); a
    top-down walk then rebuilds a witness.  Ties between Or children go
    to the first child in declaration order.  The pass runs in integers
    and reads literal blocks whole.  The witness is
    checked on every call: it must be a model of the circuit, and its
    weight, summed in the scaled ints of WeightFunction._scaled_ints, must
    equal the scaled optimum.  That table is trusted here, not checked
    again against the Fraction weights.  A failed check raises
    RuntimeError.
    """
    scale, total, r1, r0 = _regrets(c, w)
    planes1, planes0 = _planes(r1), _planes(r0)
    kinds, kids, pos, neg = c.columns

    m: list = []        # scaled least regret; None stands for -infinity
    for kind, ks, a, b in zip(kinds, kids, pos, neg):
        if kind != OR:
            acc = 0
            for ch in ks:
                x = m[ch]
                if x is None:
                    acc = None
                    break
                acc += x
            if acc is not None and (a or b):
                acc += _block_regret(a, b, planes1, planes0)
            m.append(acc)
        else:
            best = None
            for ch in ks:
                x = m[ch]
                if x is not None and (best is None or x < best):
                    best = x
            m.append(best)

    if m[c.output] is None:
        return Optimum(NEG_INF, None)
    value = Fraction(total - m[c.output], scale)
    bv = c.bit_variables
    witness: dict = {}
    stack = [c.output]
    while stack:
        nid = stack.pop()
        if kinds[nid] != OR:
            for i in mask_bits(pos[nid]):
                witness[bv[i]] = 1
            for i in mask_bits(neg[nid]):
                witness[bv[i]] = 0
            stack.extend(kids[nid])
        else:
            for ch in kids[nid]:
                if m[ch] == m[nid]:
                    stack.append(ch)
                    break
    for var in c.variables:
        if var not in witness:
            witness[var] = w.slack_bit(var)
    if not evaluate(c, witness):
        raise RuntimeError("optimum witness is not a model of the circuit")
    ints = w._scaled_ints[1]
    if sum(ints[var][witness[var]] for var in c.variables) != total - m[c.output]:
        raise RuntimeError("optimum witness does not attain the optimum value")
    return Optimum(value, witness)


def project_solution(tau: Mapping, inst: LiteralInstance) -> dict:
    """Vertex point of a multilinear-set model; the polynomial value at the
    point equals the model's weight under weights_from_profits.

    The vertex bits are read once into an int over vertex positions, and
    each edge variable is checked against its edge's two literal masks
    (see instance_layout); the first edge whose variable is not the
    product of its literals raises ValueError."""
    layout = instance_layout(inst)
    bits = [int(tau[x]) for x in layout.xs]
    point = 0
    for i, bit in enumerate(bits):
        if bit:
            point |= 1 << i
    for i, (y, p, q) in enumerate(zip(layout.ys, layout.pos, layout.neg)):
        if int(tau[y]) != ((point & p) == p and not point & q):
            raise ValueError(f"assignment is not in the multilinear set (edge {i})")
    return dict(zip(inst.hypergraph.vertices, bits))


def _kbest_sum(la: list, lb: list, k: int) -> list:
    """The k smallest sums of an entry of la and an entry of lb, ascending.

    Both lists ascend and hold at most k entries.  A grid of up to 4k sums
    is sorted whole; a larger one is walked by a heap over index pairs,
    (i, j+1) always and (i+1, j) from column 0 only.
    """
    if len(la) == 1:
        la, lb = lb, la
    if len(lb) == 1:
        return [a + lb[0] for a in la]
    if len(la) * len(lb) <= 4 * k:
        return sorted([a + b for a in la for b in lb])[:k]
    out = []
    heap = [(la[0] + lb[0], 0, 0)]
    while heap and len(out) < k:
        s, i, j = heapq.heappop(heap)
        out.append(s)
        if j + 1 < len(lb):
            heapq.heappush(heap, (la[i] + lb[j + 1], i, j + 1))
        if j == 0 and i + 1 < len(la):
            heapq.heappush(heap, (la[i + 1] + lb[0], i + 1, 0))
    return out


def top_k(c: NnfCircuit, w: WeightFunction, k: int) -> list[tuple[dict, Fraction]]:
    """The k best models by weight, values nonincreasing.

    k is any positive int; fewer pairs come back exactly when the circuit
    has fewer models.  Ties go to lexicographically smaller assignments in
    universe order.  A semiring over smooth_fold keeps, per node, the k
    best models over the variables it mentions as ascending ints
    regret << n | ones: the scaled regret against the per-variable optimum
    (see _regrets) over n variables, and the set bits, universe position i
    at bit n-1-i.  So int order is the output order, and a product over
    disjoint variables is a sum: And nodes and padding (by the k best
    completions of the missing variables, memoized per mask) take k-best
    sums, and an Or node sorts its children's entries and keeps k.  A
    block's key sums its literals' keys, but its negative regret is read
    plane by plane if it has at least as many negative literals as planes.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    scale, total, r1, r0 = _regrets(c, w)
    planes0 = _planes(r0)
    n = len(c.variables)
    # the literal at bit i has key keys[i] if positive, keys[n + i] if negative
    keys = [r << n | 1 << (n - 1 - u) for r, u in zip(r1, c.universe_rank)] + [r << n for r in r0]
    pads: dict = {}     # missing-variable mask -> its k best completions

    def pad(entries: list, missing: int) -> list:
        if not entries:     # a false node stays empty, whatever it misses
            return []
        got = pads.get(missing)
        if got is None:
            got = [0]
            for i in mask_bits(missing):
                got = _kbest_sum(got, sorted((keys[i], keys[n + i]))[:k], k)
            pads[missing] = got
        return _kbest_sum(entries, got, k)

    def product(a: int, b: int, lists) -> list:
        if b.bit_count() < len(planes0):
            key, a = 0, a | b << n
        else:
            key = _block_regret(0, b, (), planes0) << n
        while a:
            low = a & -a
            key += keys[low.bit_length() - 1]
            a ^= low
        acc = [key]
        for entries in lists:
            acc = _kbest_sum(acc, entries, k)
        return acc

    out = smooth_fold(c, zip(count(), *c.columns), c.output,
                      lambda a, b: [keys[(a or b << n).bit_length() - 1]],
                      product, lambda d, lists: sorted(chain.from_iterable(lists))[:k],
                      pad, [0], [])
    low = (1 << n) - 1
    return [(dict(zip(c.variables, format(key & low, f"0{n}b").encode().translate(_BITS))),
             Fraction(total - (key >> n), scale)) for key in out]
