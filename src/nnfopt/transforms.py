"""Circuit transformations for cardinality and knapsack constraints.

Every node of a decomposable, deterministic circuit is copied once per
achievable value of an integer contribution function (the count of set
variables from a chosen subset, or a weighted sum), so that copy i of a
node accepts exactly the node's models whose contribution is i.  The copy
is a semiring over circuit.smooth_fold that writes a columnar circuit: a
node's value is its table (value -> copy), and the fold pads Or children
and the output over the variables they miss, here by convolving with
chains of copied variables.  Constants are folded on the way, and a
literal block stays whole: it shifts the values of its node by a
constant.  And nodes turn into right-nested convolutions of their
children's copies, with a selector Or per value when several pairs of
partial sums reach it; these selectors are deterministic because their
children pin distinct partial sums, so they are marked SELECTOR.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

from .circuit import (AND, LIT, OR, SELECTOR, NnfCircuit, _copier, add_node,
                      check_structure, fold_constants, mask_bits, smooth_fold)
from .instances import CardinalitySpec, _integer


def _require_transformable(c: NnfCircuit, counted) -> None:
    missing = set(counted) - set(c.variables)
    if missing:
        raise ValueError(f"counted variables not in universe: {sorted(missing, key=repr)}")
    rep = check_structure(c)
    if not (rep.decomposable and rep.deterministic):
        raise ValueError("transform needs a decomposable, deterministic circuit")


def _indexed_copies(c: NnfCircuit, coef: Mapping):
    """Copy each node of c once per contribution value, in columns.

    coef maps a variable to what setting it to 1 contributes; setting it
    to 0 contributes nothing.  The copy reads fold_constants(c), so only
    nodes the output reaches are copied.  An And node convolves its
    live children right-nested in child order; a literal block of two or
    more literals stays one node, the first factor, whose one value is
    the sum of its positive literals' contributions.  An Or node pads each
    child over the variables it misses and merges per value, in child
    order, under its own marker.  The padding of a missing-variable mask
    is a right-nested chain over its variables in universe order
    (memoized per mask): a variable with a contribution gives its two
    literals at two values, any other variable Or(positive, negative)
    marked by its bit.  Where several pairs of partial sums reach one
    value, an Or marked SELECTOR holds them in ascending (left, right)
    order.  Ties in optimize thus see the children and alternatives in
    the order of smooth_binary_form(c).  Every literal node of c is
    copied first, so record_kids can expand blocks.

    Returns (columns, table, size): the columns written so far, the
    output's table (value -> node id, ascending) padded to the whole
    universe, and the size the copy is bounded by: c's node and edge
    count plus |missing| + 2 for each padding applied.
    """
    n = len(c.bit_variables)
    bit = c.bit_index
    val = [0] * n
    support = 0
    for var, cv in coef.items():
        if cv:
            val[bit[var]] = cv
            support |= 1 << bit[var]
    rank = c.universe_rank
    out, literal, gadget = _copier()
    okinds, okids, opos, oneg = out

    def selectors(pairs: Iterable, mark) -> dict:
        alts: dict = {}
        for s, x in pairs:
            alts.setdefault(s, []).append(x)
        table = {}
        for s in sorted(alts):
            got = alts[s]
            table[s] = got[0] if len(got) == 1 else add_node(out, OR, tuple(got), mark)
        return table

    def conv(t1: dict, t2: dict) -> dict:
        pairs = [(x, y) for x in t1.values() for y in t2.values()]
        sums = [s1 + s2 for s1 in t1 for s2 in t2]
        start, k = len(okinds), len(pairs)
        okinds.extend([AND] * k)
        okids.extend(pairs)
        opos.extend([0] * k)
        oneg.extend([0] * k)
        if len(t1) == 1 or len(t2) == 1:    # sums distinct and ascending
            return dict(zip(sums, range(start, start + k)))
        return selectors(zip(sums, range(start, start + k)), SELECTOR)

    chains: dict = {}
    size = c.node_count + c.edge_count

    def unit(i: int) -> dict:   # bit i's table: its two literals, or its gadget
        cv = val[i]
        if cv == 0:
            return {0: gadget(i)}
        one, zero = literal(1 << i, 0), literal(0, 1 << i)
        return {0: zero, cv: one} if cv > 0 else {cv: one, 0: zero}

    def pad(table, missing: int) -> dict:   # table None stands for true
        nonlocal size
        size += missing.bit_count() + 2
        got = chains.get(missing)
        if got is None:
            order = sorted(mask_bits(missing), key=rank.__getitem__)
            got = unit(order.pop())
            while order:
                got = conv(unit(order.pop()), got)
            chains[missing] = got
        return got if table is None else conv(table, got)

    def product(a: int, b: int, tables: list) -> dict:
        if a or b:
            shift = sum(val[i] for i in mask_bits(a & support))
            tables.insert(0, {shift: add_node(out, AND, (), a, b)})
        table = tables.pop()
        while tables:
            table = conv(tables.pop(), table)
        return table

    live, root = fold_constants(c)
    for _, kind, _, a, b in live:       # every literal first, in node order
        if kind == LIT:
            literal(a, b)
    table = smooth_fold(c, live, root,
                        lambda a, b: {val[a.bit_length() - 1] if a else 0: literal(a, b)},
                        product, lambda mark, tables: selectors(
                            chain.from_iterable(t.items() for t in tables), mark),
                        pad, None, {})
    if table is None:
        table = {0: add_node(out, AND)}
    return out, table, size


def _finish(c: NnfCircuit, columns: tuple, output: int, size: int, p: int) -> NnfCircuit:
    """The copied circuit, checked against the copy's size bound.

    Tables hold at most p + 1 values, so one convolution writes
    O((p+1)^2) nodes and edges; the bound allows 3(p+2)^2 per unit of
    size and p + 2 for the final Or.
    """
    built = NnfCircuit(c.variables, c.bit_variables, columns, output)
    if built.node_count + built.edge_count > 3 * (p + 2) ** 2 * max(size, 1) + p + 2:
        raise RuntimeError("transform exceeded its size bound")
    return built


def _counted_copies(c: NnfCircuit, counted: tuple):
    _require_transformable(c, counted)
    return _indexed_copies(c, dict.fromkeys(counted, 1))


def counting_transform(c: NnfCircuit, counted: Iterable) -> tuple[NnfCircuit, tuple]:
    """Circuit with one root per possible count of set variables in counted.

    Root i accepts exactly the models of c that set i of the counted
    variables; structurally impossible counts come out as a shared false
    node.  The returned circuit's own output disjoins all roots, so its
    model set equals c's.
    """
    counted = tuple(counted)
    columns, table, size = _counted_copies(c, counted)
    p = len(counted)
    false = None
    roots = []
    for i in range(p + 1):
        if i not in table and false is None:
            false = add_node(columns, OR, (), None)
        roots.append(table.get(i, false))
    output = add_node(columns, OR, tuple(table.values()), SELECTOR)
    return _finish(c, columns, output, size, p), tuple(roots)


def restrict_cardinality(c: NnfCircuit, spec: CardinalitySpec) -> NnfCircuit:
    """Models of c whose counted-bit sum lies in the admissible set.

    An empty admissible set yields a circuit with no models.
    """
    columns, table, size = _counted_copies(c, spec.variables)
    output = add_node(columns, OR, tuple(table[s] for s in sorted(spec.sums)
                                        if s in table), SELECTOR)
    return _finish(c, columns, output, size, len(spec.variables))


def knapsack_transform(c: NnfCircuit, coeffs: Mapping, lower: int, upper: int) -> NnfCircuit:
    """Models of c with lower <= sum of coeffs[v]*bit(v) <= upper.

    Coefficients are integers and may be negative; variables without a
    coefficient count as zero.  Work is proportional to the number of
    achievable partial sums, which is bounded by the total absolute
    coefficient mass.
    """
    coeffs = {v: _integer(cv, f"knapsack coefficient for {v!r}") for v, cv in coeffs.items()}
    _require_transformable(c, coeffs.keys())
    lower, upper = _integer(lower, "knapsack bound"), _integer(upper, "knapsack bound")
    if lower > upper:
        raise ValueError("empty knapsack interval")
    columns, table, size = _indexed_copies(c, coeffs)
    output = add_node(columns, OR, tuple(x for s, x in table.items()
                                        if lower <= s <= upper), SELECTOR)
    return _finish(c, columns, output, size, sum(map(abs, coeffs.values())))
