"""Extended linear formulations extracted from normalized DNNF circuits.

One unknown per circuit edge plus, optionally, one per variable.  The
equalities say: the output absorbs one unit of flow, Or nodes conserve
flow, and every in-edge of an And node carries the node's full outflow.
Integral solutions are exactly the indicator vectors of certificates
(tree-shaped sub-DAGs picking one child per Or and all children per And),
and the system is totally dual integral: a single forward pass builds an
integral optimal dual for any integer edge costs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Optional, Sequence

from .circuit import (AND, FALSE, LIT, OR, TRUE, CapExceeded, CircuitBuilder,
                      NnfCircuit, add_node, check_normalized)
from .maxplus import WeightFunction


class Row(NamedTuple):
    tag: tuple
    coeffs: tuple          # ((column, coefficient), ...) in column order
    relation: str          # '=' or '>='
    rhs: int

    def value_at(self, point: Mapping) -> Fraction:
        return sum((Fraction(point[col]) * k for col, k in self.coeffs), Fraction(0))

    def holds_at(self, point: Mapping) -> bool:
        v = self.value_at(point)
        return v == self.rhs if self.relation == "=" else v >= self.rhs


class LinearSystem:
    """Sparse rows with coefficients in {-1, 0, 1} over named columns."""

    def __init__(self, columns: Sequence, rows: Sequence[Row],
                 column_names: Mapping) -> None:
        self.columns = tuple(columns)
        self.rows = tuple(rows)
        self.column_names = dict(column_names)
        for row in self.rows:
            for col, k in row.coeffs:
                if k not in (-1, 1):
                    raise ValueError("coefficients must stay in {-1, 0, 1}")
                if col not in self.column_names:
                    raise ValueError(f"unknown column {col!r}")

    def row_by_tag(self, tag: tuple) -> Row:
        for row in self.rows:
            if row.tag == tag:
                return row
        raise KeyError(tag)

    def check_point(self, point: Mapping) -> bool:
        return all(row.holds_at(point) for row in self.rows)

    def __repr__(self) -> str:
        return f"LinearSystem({len(self.rows)} rows, {len(self.columns)} columns)"


def build_system(c: NnfCircuit, include_x: bool = False) -> LinearSystem:
    """The flow system of a normalized circuit, in O(size) time.

    With include_x, adds one projection row per universe variable tying it
    to the outflow of its positive literal input; that requires the
    circuit to be smooth and to mention every variable.
    """
    check_normalized(c, require_smooth=include_x)
    kinds, _, pos, neg = c.columns
    record_kids = c.record_kids
    ecols = [("y", eid) for eid in range(c.edge_count)]
    columns = list(ecols)
    names = {col: f"y{eid}" for eid, col in enumerate(ecols)}
    # every row shares these (column, coefficient) pairs
    plus = [(col, 1) for col in ecols]
    minus = [(col, -1) for col in ecols]
    ids, start = _fanout(c)

    def outflow(v: int) -> list:
        return [minus[e] for e in ids[start[v]:start[v + 1]]]

    rows: list = [None]     # the output's row comes first
    eid = 0
    for nid, (kind, ks) in enumerate(zip(kinds, record_kids)):
        ins = plus[eid:eid + len(ks)]
        if nid == c.output:
            rows[0] = Row(("out",), tuple(ins), "=", 1)
        elif kind == OR:
            rows.append(Row(("or", nid), tuple(ins + outflow(nid)), "=", 0))
        elif kind == AND:
            tail = tuple(outflow(nid))
            for e, pair in enumerate(ins, eid):
                rows.append(Row(("and", nid, e), (pair,) + tail, "=", 0))
        eid += len(ks)
    rows.extend(Row(("nonneg", e), (pair,), ">=", 0) for e, pair in enumerate(plus))

    if include_x:
        bv = c.bit_variables
        lits = {(bv[(pos[nid] | neg[nid]).bit_length() - 1], bool(pos[nid])): nid
                for nid, kind in enumerate(kinds) if kind == LIT}
        satisfiable = bool(record_kids[c.output])
        for i, var in enumerate(c.variables, 1):
            lid = lits.get((var, True))
            if satisfiable and lid is None and (var, False) not in lits:
                raise ValueError(f"variable {var!r} does not occur; normalize first")
            col = ("x", var)
            columns.append(col)
            names[col] = f"x{i}"
            coeffs = [(col, 1)]
            if lid is not None:
                coeffs += outflow(lid)
            rows.append(Row(("proj", var), tuple(coeffs), "=", 0))
    return LinearSystem(columns, rows, names)


def _edges(c: NnfCircuit):
    """Each edge as (child, parent), in edge-id order."""
    for par, ks in enumerate(c.record_kids):
        for ch in ks:
            yield ch, par


def _fanout(c: NnfCircuit) -> tuple[list, list]:
    """Out-edge ids by node, as (ids, start): the out-edges of node v are
    ids[start[v]:start[v + 1]], ascending.  Two flat lists, so a large
    circuit costs no list per node."""
    child = list(chain.from_iterable(c.record_kids))     # the child of each edge
    ids = sorted(range(len(child)), key=child.__getitem__)
    fan = Counter(child)
    start = list(accumulate((fan[v] for v in range(c.node_count)), initial=0))
    return ids, start


# ---------------------------------------------------------------------------
# certificates


def validate_certificate(c: NnfCircuit, gates: frozenset) -> None:
    """Raise ValueError unless gates forms a certificate of c."""
    if c.output not in gates:
        raise ValueError("certificate must contain the output")
    kinds = c.columns[0]
    record_kids = c.record_kids
    fed = set(chain.from_iterable(record_kids[nid] for nid in gates))
    for nid in gates:
        kind = kinds[nid]
        if kind == OR:
            chosen = [ch for ch in record_kids[nid] if ch in gates]
            if len(chosen) != 1:
                raise ValueError(f"Or gate {nid} must have exactly one chosen input")
        elif kind == AND:
            if any(ch not in gates for ch in record_kids[nid]):
                raise ValueError(f"And gate {nid} must have all inputs chosen")
        elif kind == FALSE:
            raise ValueError("certificates cannot pass through false")
        if nid != c.output and nid not in fed:
            raise ValueError(f"gate {nid} feeds no chosen gate")


def enumerate_certificates(c: NnfCircuit, cap: int = 100000) -> list[frozenset]:
    """All certificates, as gate-id sets; raises CapExceeded beyond cap."""
    check_normalized(c, require_smooth=False)
    kinds = c.columns[0]
    record_kids = c.record_kids
    counts: list[int] = []
    for kind, ks in zip(kinds, record_kids):
        if kind in (LIT, TRUE):
            counts.append(1)
        elif kind == FALSE:
            counts.append(0)
        elif kind == AND:
            n = 1
            for ch in ks:
                n *= counts[ch]
            counts.append(n)
        else:
            counts.append(sum(counts[ch] for ch in ks))
        if counts[-1] > cap:
            raise CapExceeded("certificate cap exceeded")
    if counts[c.output] > cap:
        raise CapExceeded("certificate cap exceeded")

    table: list[list[frozenset]] = []
    for nid, (kind, ks) in enumerate(zip(kinds, record_kids)):
        if kind in (LIT, TRUE):
            table.append([frozenset((nid,))])
        elif kind == FALSE:
            table.append([])
        elif kind == AND:
            acc = [frozenset((nid,))]
            for ch in ks:
                acc = [t | s for t in acc for s in table[ch]]
            table.append(acc)
        else:
            table.append([t | {nid} for ch in ks for t in table[ch]])
    return table[c.output]


def certificate_point(t: frozenset, c: NnfCircuit) -> tuple[dict, dict]:
    """The 0/1 (y, x) vectors of a certificate of a smooth normalized circuit."""
    check_normalized(c, require_smooth=True)
    validate_certificate(c, t)
    y = {("y", eid): int(ch in t and par in t) for eid, (ch, par) in enumerate(_edges(c))}
    kinds, _, pos, neg = c.columns
    x = {}
    for nid in t:
        if kinds[nid] == LIT:
            var = c.bit_variables[(pos[nid] | neg[nid]).bit_length() - 1]
            if ("x", var) in x:
                raise ValueError(f"two literals of {var!r} in one certificate")
            x[("x", var)] = 1 if pos[nid] else 0
    for var in c.variables:
        if ("x", var) not in x:
            raise ValueError(f"certificate fixes no literal of {var!r}")
    return y, x


def certificate_tree_cost(c: NnfCircuit, t: frozenset, cost: Mapping) -> Fraction:
    """Total cost of the edges with both endpoints in the certificate."""
    total = Fraction(0)
    for eid, (ch, par) in enumerate(_edges(c)):
        if ch in t and par in t:
            total += Fraction(cost.get(eid, 0))
    return total


# ---------------------------------------------------------------------------
# the constructive integral dual


def dual_optimize(c: NnfCircuit, cost: Mapping) -> tuple:
    """Optimal dual of max{cost . y} over the flow system, by one forward
    pass in topological order.

    Returns (value, assignment) where the assignment maps ('or', gate) and
    ('and', gate, edge) dual variables to their values; the output gate's
    variable carries the optimum, which equals the best certificate tree
    cost.  Integer costs give an integral dual.
    """
    check_normalized(c, require_smooth=False)
    record_kids = c.record_kids
    if not record_kids[c.output]:
        raise ValueError("unsatisfiable circuit: the primal system is infeasible")

    z: dict = {}
    base: list = []     # per gate: its Or variable, or the sum of its And variables
    eid = 0
    for nid, (kind, ks) in enumerate(zip(c.columns[0], record_kids)):
        if kind == AND:
            acc = 0
            for e, ch in enumerate(ks, eid):
                z[("and", nid, e)] = got = _plus(cost.get(e), base[ch])
                acc += got
            base.append(acc)
        elif kind == OR and ks:
            z[("or", nid)] = got = max(_plus(cost.get(e), base[ch])
                                       for e, ch in enumerate(ks, eid))
            base.append(got)
        else:
            # a childless Or has no dual variable for a parent to read
            base.append(None if kind == OR else 0)
        eid += len(ks)
    return z[("or", c.output)], z


def _plus(cost, value):
    """cost + value, where a missing cost adds nothing; most edges carry
    no cost, and skipping the addition spares a Fraction per edge."""
    return value if cost is None else cost + value


def insert_literal_relays(c: NnfCircuit) -> NnfCircuit:
    """Give every literal input a single out-edge by routing multi-parent
    literals through a fresh unary Or; the function is unchanged.

    The copy writes each node's record_kids as plain kids, so edge ids
    keep their order with relays in place of literals.
    """
    kinds, _, pos, neg = c.columns
    record_kids = c.record_kids
    parents = Counter(chain.from_iterable(record_kids))
    if not any(kind == LIT and parents[nid] > 1 for nid, kind in enumerate(kinds)):
        return c
    out = ([], [], [], [])
    new: list = []
    relays: dict = {}
    for nid, kind in enumerate(kinds):
        ks = []
        for ch in record_kids[nid]:
            if kinds[ch] == LIT and parents[ch] > 1:
                if ch not in relays:
                    relays[ch] = add_node(out, OR, (new[ch],), None)
                ks.append(relays[ch])
            else:
                ks.append(new[ch])
        if kind == AND:     # its block is among its record_kids
            new.append(add_node(out, AND, tuple(ks)))
        else:
            new.append(add_node(out, kind, tuple(ks), pos[nid], neg[nid]))
    return NnfCircuit(c.variables, c.bit_variables, out, new[c.output])


def weight_edge_costs(c: NnfCircuit, w: WeightFunction) -> tuple[NnfCircuit, dict]:
    """Edge costs realizing a weight function: each variable's weight sits
    on the unique out-edge of its literal input.

    Returns (circuit, cost) where the circuit is c with relay nodes added
    when a literal had several out-edges.  Maximizing these costs over
    certificates reproduces the max-plus optimum.
    """
    relayed = insert_literal_relays(c)
    check_normalized(relayed, require_smooth=True)
    kinds, _, pos, neg = relayed.columns
    bv = relayed.bit_variables
    ids, start = _fanout(relayed)
    cost: dict[int, Fraction] = {}
    for nid, kind in enumerate(kinds):
        if kind == LIT:
            if start[nid + 1] - start[nid] != 1:
                raise RuntimeError("literal relay insertion failed")
            a = pos[nid]
            cost[ids[start[nid]]] = w.weight(bv[(a | neg[nid]).bit_length() - 1], 1 if a else 0)
    return relayed, cost


# ---------------------------------------------------------------------------
# total unimodularity counterexample


def _determinant(matrix: Sequence[Sequence]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] -= factor * m[col][cc]
    return det


def non_tu_witness_circuit() -> NnfCircuit:
    """A small smooth-free DNNF whose flow matrix is not totally unimodular."""
    b = CircuitBuilder((1, 2, 3))
    l1 = b.literal(1, True)
    l2 = b.literal(2, True)
    l3 = b.literal(3, True)
    d = b.add_or((l1,), None)
    e = b.add_and((l2, l3))
    cc = b.add_and((d, e))
    bb = b.add_or((cc,), None)
    a = b.add_or((bb, d), None)
    out = b.add_or((a, e), None)
    return b.finish(out)


def tu_counterexample_check() -> int:
    """Determinant of the distinguished 6x6 submatrix of the witness
    circuit's flow system; a value outside {-1, 0, 1} shows the system is
    not totally unimodular."""
    c = non_tu_witness_circuit()
    system = build_system(c, include_x=False)
    # gates by construction order: 0..2 literals, 3 unary Or over l1,
    # 4 And(l2,l3), 5 And(3,4), 6 unary Or(5), 7 Or(6,3), 8 output Or(7,4)
    row_tags = [("out",), ("or", 7), ("and", 5, 3), ("and", 5, 4),
                ("or", 3), ("and", 4, 1)]
    col_order = [("y", 8), ("y", 5), ("y", 7), ("y", 3), ("y", 9), ("y", 4)]
    matrix = []
    for tag in row_tags:
        row = system.row_by_tag(tag)
        d = dict(row.coeffs)
        matrix.append([d.get(col, 0) for col in col_order])
    det = _determinant(matrix)
    if det.denominator != 1:
        raise RuntimeError(f"determinant of an integer matrix came out as {det}")
    return int(det)


# ---------------------------------------------------------------------------
# LP export


def decimal_places(value) -> Optional[int]:
    """Digits after the point in the exact decimal form of a rational, or
    None when it has no finite one."""
    den = Fraction(value).denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def _lp_number(value) -> str:
    """Exact plain-decimal rendering; rejects fractions that have none."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    digits = decimal_places(f)
    if digits is None:
        raise ValueError(
            f"{f} has no exact decimal form; scale the objective to integers")
    scaled = f * 10 ** digits
    text = str(scaled.numerator).rjust(digits + 1, "0")
    sign = "-" if text.startswith("-") else ""
    text = text.lstrip("-").rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _lp_terms(pairs, names) -> str:
    parts = []
    for col, k in pairs:
        coeff = Fraction(k)
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        term = names[col] if mag == 1 else f"{_lp_number(mag)} {names[col]}"
        parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0 " + next(iter(names.values()))


def to_lp_text(system: LinearSystem, objective: Mapping,
               sense: str = "max", comment: Optional[str] = None) -> str:
    """Render the system in the classic LP file dialect.

    Flow unknowns are declared nonnegative in Bounds, projection unknowns
    free.  Objective and right-hand sides must be exactly representable
    as decimals.
    """
    if not system.columns:
        raise ValueError("cannot export a system with no columns")
    names = system.column_names
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"\\ {ln}")
    lines.append("Maximize" if sense == "max" else "Minimize")
    obj_pairs = [(col, objective[col]) for col in system.columns if col in objective
                 and Fraction(objective[col]) != 0]
    obj_parts = []
    for col, k in obj_pairs:
        coeff = Fraction(k)
        sign = "-" if coeff < 0 else "+"
        obj_parts.append(f"{sign} {_lp_number(abs(coeff))} {names[col]}")
    lines.append(" obj: " + (" ".join(obj_parts) if obj_parts else "0 " +
                             names[system.columns[0]]))
    lines.append("Subject To")
    idx = 0
    bounds = []
    for row in system.rows:
        if row.relation == ">=" and len(row.coeffs) == 1 and row.coeffs[0][1] == 1:
            bounds.append(f" {names[row.coeffs[0][0]]} >= {_lp_number(row.rhs)}")
            continue
        idx += 1
        rel = "=" if row.relation == "=" else ">="
        lines.append(f" c{idx}: {_lp_terms(row.coeffs, names)} {rel} {_lp_number(row.rhs)}")
    lines.append("Bounds")
    lines.extend(bounds)
    for col in system.columns:
        if col[0] == "x":
            lines.append(f" {names[col]} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
