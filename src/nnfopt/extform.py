"""Extended linear formulations extracted from normalized DNNF circuits.

One unknown per circuit edge plus, optionally, one per variable.  The
equalities say: the output absorbs one unit of flow, Or nodes conserve
flow, and every in-edge of an And node carries the node's full outflow.
Integral solutions are exactly the indicator vectors of certificates
(tree-shaped sub-DAGs picking one child per Or and all children per And),
and the system is totally dual integral: a single forward pass builds an
integral optimal dual for any integer edge costs.

The system is stored as a few flat int lists (compressed sparse rows of
(column number, +-1) entries, right-hand sides and small-int row tags),
not as one Python object per row; `LinearSystem.rows` rebuilds a row as a
`Row` tuple when it is read.  The dual runs in ints, with rational costs
scaled by the lcm of their denominators, and keeps one flat list of
values per gate and one per edge; its assignment is a read-only Mapping
over them, the way `rows` reads the CSR arrays.

build_system, weight_edge_costs and dual_optimize all read the one
circuit that normalize_for_extform returns; check_normalized scans it in
full once and keeps its verdict on it.  A variable's weight sits on every
out-edge of its literal, since a certificate of a decomposable circuit
crosses at most one of them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import lcm, prod
from operator import add, mul
from typing import NamedTuple, Optional

from .circuit import AND, LIT, OR, CapExceeded, CircuitBuilder, NnfCircuit, check_normalized
from .maxplus import WeightFunction


class Row(NamedTuple):
    tag: tuple
    coeffs: tuple          # ((column, coefficient), ...) in column order
    relation: str          # '=' or '>='
    rhs: int


# row kinds in LinearSystem.kind; a row's tag is rebuilt from its kind,
# node and edge numbers
_OUT, _OR, _AND, _NONNEG, _PROJ = range(5)


class LinearSystem:
    """Sparse rows with coefficients in {-1, 1}, stored as flat int lists.

    Column j < edge_count is the flow unknown ("y", j) of edge j, column
    edge_count + i the projection unknown ("x", variables[i]).  The rows
    are in compressed sparse row form: row r holds the entries
    (col[k], coef[k]) for start[r] <= k < start[r + 1] and has right-hand
    side rhs[r].  Rows nonneg[0] <= r < nonneg[1] read '>=', all others
    '='.  kind[r], node[r] and edge[r] give row r's tag: ("out",),
    ("or", node), ("and", node, edge), ("nonneg", edge) or
    ("proj", variables[node]).

    `rows` is a read-only sequence that builds each row as a Row on
    access; `columns` and `column_names` are built on first use.
    """

    def __init__(self, edge_count: int, variables: Sequence, start: list, col: list,
                 coef: list, rhs: list, nonneg: tuple, tags: tuple) -> None:
        self.edge_count = edge_count
        self.variables = tuple(variables)
        self.start, self.col, self.coef, self.rhs = start, col, coef, rhs
        self.nonneg = nonneg
        self.kind, self.node, self.edge = tags
        if (len(start) != len(rhs) + 1 or start[0] != 0 or start[-1] != len(col)
                or len(coef) != len(col) or any(len(t) != len(rhs) for t in tags)):
            raise ValueError("row arrays disagree in length")
        if not set(coef) <= {-1, 1}:
            raise ValueError("coefficients must stay in {-1, 0, 1}")
        width = edge_count + len(self.variables)
        if col and (min(col) < 0 or max(col) >= width):
            bad = next(j for j in col if not 0 <= j < width)
            raise ValueError(f"column {bad} out of range")

    @cached_property
    def columns(self) -> tuple:
        return tuple([("y", e) for e in range(self.edge_count)] +
                     [("x", var) for var in self.variables])

    @cached_property
    def column_names(self) -> dict:
        names = [f"y{e}" for e in range(self.edge_count)]
        names += [f"x{i}" for i in range(1, len(self.variables) + 1)]
        return dict(zip(self.columns, names))

    @property
    def rows(self) -> "_RowView":
        return _RowView(self)

    def _tag(self, r: int) -> tuple:
        kind = self.kind[r]
        if kind == _OUT:
            return ("out",)
        if kind == _OR:
            return ("or", self.node[r])
        if kind == _AND:
            return ("and", self.node[r], self.edge[r])
        if kind == _NONNEG:
            return ("nonneg", self.edge[r])
        return ("proj", self.variables[self.node[r]])

    def row_by_tag(self, tag: tuple) -> Row:
        for r in range(len(self.rhs)):
            if self._tag(r) == tag:
                return self.rows[r]
        raise KeyError(tag)

    def check_point(self, point: Mapping) -> bool:
        vals = [Fraction(point[col]) for col in self.columns]
        start, col, coef = self.start, self.col, self.coef
        lo, hi = self.nonneg
        for r, rhs in enumerate(self.rhs):
            a, b = start[r], start[r + 1]
            v = sum(map(mul, map(vals.__getitem__, col[a:b]), coef[a:b]))
            if not (v >= rhs if lo <= r < hi else v == rhs):
                return False
        return True

    def __repr__(self) -> str:
        return f"LinearSystem({len(self.rhs)} rows, {len(self.columns)} columns)"


class _RowView(Sequence):
    """A LinearSystem's rows, in order, each built as a Row on access."""

    __slots__ = ("_system",)

    def __init__(self, system: LinearSystem) -> None:
        self._system = system

    def __len__(self) -> int:
        return len(self._system.rhs)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return tuple(self[i] for i in range(*r.indices(len(self))))
        s = self._system
        r = range(len(s.rhs))[r]        # IndexError out of range; negatives count back
        a, b = s.start[r], s.start[r + 1]
        keys = s.columns
        coeffs = tuple((keys[j], k) for j, k in zip(s.col[a:b], s.coef[a:b]))
        lo, hi = s.nonneg
        return Row(s._tag(r), coeffs, ">=" if lo <= r < hi else "=", s.rhs[r])


def build_system(c: NnfCircuit, include_x: bool = False) -> LinearSystem:
    """The flow system of a normalized circuit, in O(size) time.

    Rows come in this order: the output's, then by node, one per Or and
    one per And in-edge, then one nonnegativity row per edge.  With
    include_x, one projection row per universe variable follows, tying it
    to the outflow of its positive literal input; that requires the
    circuit to be smooth and to mention every variable.
    """
    check_normalized(c, require_smooth=include_x)
    kinds, _, pos, neg = c.columns
    record_kids = c.record_kids
    n_edges = c.edge_count
    out = c.output
    first = list(accumulate(map(len, record_kids), initial=0))   # in-edges by node
    ids, fan = _fanout(c)                                        # out-edges by node

    # the output's row comes first
    col = list(range(first[out], first[out + 1]))
    coef = [1] * len(col)
    start = [0, len(col)]
    kind, node, edge = [_OUT], [out], [-1]
    for nid, k in enumerate(kinds):
        if k == OR and nid != out:
            col.extend(range(first[nid], first[nid + 1]))
            col.extend(ids[fan[nid]:fan[nid + 1]])
            coef += [1] * (first[nid + 1] - first[nid])
            coef += [-1] * (fan[nid + 1] - fan[nid])
            start.append(len(col))
            kind.append(_OR)
            node.append(nid)
            edge.append(-1)
        elif k == AND:
            # one row per in-edge e: (e, +1) and the node's outflow
            ins = range(first[nid], first[nid + 1])
            row = [0] + ids[fan[nid]:fan[nid + 1]]
            for e in ins:
                row[0] = e
                col += row
            width = len(row)
            coef += ([1] + [-1] * (width - 1)) * len(ins)
            start.extend(range(start[-1] + width, len(col) + 1, width))
            kind += [_AND] * len(ins)
            node += [nid] * len(ins)
            edge.extend(ins)

    nonneg = (len(kind), len(kind) + n_edges)
    start.extend(range(len(col) + 1, len(col) + n_edges + 1))
    col.extend(range(n_edges))
    coef += [1] * n_edges
    kind += [_NONNEG] * n_edges
    node += [-1] * n_edges
    edge.extend(range(n_edges))

    variables = c.variables if include_x else ()
    if include_x:
        bv = c.bit_variables
        lits = {(bv[(pos[nid] | neg[nid]).bit_length() - 1], bool(pos[nid])): nid
                for nid, k in enumerate(kinds) if k == LIT}
        satisfiable = bool(record_kids[out])
        for i, var in enumerate(variables):
            lid = lits.get((var, True))
            if satisfiable and lid is None and (var, False) not in lits:
                raise ValueError(f"variable {var!r} does not occur; normalize first")
            col.append(n_edges + i)
            coef.append(1)
            if lid is not None:
                col.extend(ids[fan[lid]:fan[lid + 1]])
                coef += [-1] * (fan[lid + 1] - fan[lid])
            start.append(len(col))
            kind.append(_PROJ)
            node.append(i)
            edge.append(-1)
    rhs = [0] * len(kind)
    rhs[0] = 1
    return LinearSystem(n_edges, variables, start, col, coef, rhs, nonneg,
                        (kind, node, edge))


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
            if not record_kids[nid]:
                raise ValueError("certificates cannot pass through false")
            chosen = [ch for ch in record_kids[nid] if ch in gates]
            if len(chosen) != 1:
                raise ValueError(f"Or gate {nid} must have exactly one chosen input")
        elif kind == AND:
            if any(ch not in gates for ch in record_kids[nid]):
                raise ValueError(f"And gate {nid} must have all inputs chosen")
        if nid != c.output and nid not in fed:
            raise ValueError(f"gate {nid} feeds no chosen gate")


def enumerate_certificates(c: NnfCircuit, cap: int = 100000) -> list[frozenset]:
    """All certificates, as gate-id sets; raises CapExceeded beyond cap.

    One pass: each node's count comes from its children's tables, and the
    first node over the cap raises before its own table is built.
    """
    check_normalized(c, require_smooth=False)
    table: list[list[frozenset]] = []
    for nid, (kind, ks) in enumerate(zip(c.columns[0], c.record_kids)):
        # a literal is an And over no children
        n = sum(len(table[ch]) for ch in ks) if kind == OR else \
            prod(len(table[ch]) for ch in ks)
        if n > cap:
            raise CapExceeded("certificate cap exceeded")
        if kind == OR:
            table.append([t | {nid} for ch in ks for t in table[ch]])
        else:
            acc = [frozenset((nid,))]
            for ch in ks:
                acc = [t | s for t in acc for s in table[ch]]
            table.append(acc)
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
    cost.  Integer costs give an integral dual.  Rational costs are
    scaled to ints by the lcm of their denominators for the pass, and the
    values are scaled back to exact Fractions as they are read.

    The pass keeps one flat list of values per gate and one per edge, not
    a dict: the assignment is a read-only Mapping over them, whose keys
    come in node order and, within an And, in edge order.
    """
    check_normalized(c, require_smooth=False)
    record_kids = c.record_kids
    if not record_kids[c.output]:
        raise ValueError("unsatisfiable circuit: the primal system is infeasible")
    scale = None
    if not set(map(type, cost.values())) <= {int}:
        scale = lcm(*(k.denominator for k in cost.values()))
        cost = {e: k.numerator * (scale // k.denominator) for e, k in cost.items()}
    costs = list(map(cost.get, range(c.edge_count), repeat(0)))

    gate: list = []     # per gate: its Or variable, or the sum of its And variables
    edge: list = []     # per edge: its cost plus its child's value
    for kind, ks in zip(c.columns[0], record_kids):
        if ks:
            got = list(map(add, costs[len(edge):len(edge) + len(ks)], map(gate.__getitem__, ks)))
            edge += got
            gate.append(sum(got) if kind == AND else max(got))
        else:
            # a childless Or has no dual variable for a parent to read
            gate.append(None if kind == OR else 0)
    z = _DualView(c, gate, edge, scale)
    return z[("or", c.output)], z


class _DualView(Mapping):
    """dual_optimize's assignment, read from its per-gate and per-edge
    lists: ('or', gate) for each Or with inputs and ('and', gate, edge)
    for each And in-edge, gate and edge being int ids, with values scaled
    back on access."""

    def __init__(self, c: NnfCircuit, gate: list, edge: list, scale: Optional[int]) -> None:
        self._kinds, self._kids = c.columns[0], c.record_kids
        self._first = list(accumulate(map(len, self._kids), initial=0))    # in-edges by node
        self._gate, self._edge, self._scale = gate, edge, scale

    def _value(self, v):
        return v if self._scale is None else Fraction(v, self._scale)

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) in (2, 3) \
                and all(isinstance(i, int) for i in key[1:]) and 0 <= key[1] < len(self._kinds):
            nid = key[1]
            kind = self._kinds[nid]
            if key[0] == "or" and len(key) == 2 and kind == OR and self._kids[nid]:
                return self._value(self._gate[nid])
            if key[0] == "and" and len(key) == 3 and kind == AND \
                    and self._first[nid] <= key[2] < self._first[nid + 1]:
                return self._value(self._edge[key[2]])
        raise KeyError(key)

    def __iter__(self):
        first = self._first
        for nid, (kind, ks) in enumerate(zip(self._kinds, self._kids)):
            if kind == AND:
                for e in range(first[nid], first[nid + 1]):
                    yield ("and", nid, e)
            elif kind == OR and ks:
                yield ("or", nid)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def weight_edge_costs(c: NnfCircuit, w: WeightFunction) -> tuple[NnfCircuit, dict]:
    """Edge costs realizing a weight function: every out-edge of a literal
    input carries that literal's weight.

    Returns (c, cost), with c itself: no node is added.  A certificate of
    a decomposable circuit uses at most one out-edge per literal, since
    two paths from the output to one literal would part at an And (which
    decomposability forbids) or at an Or (which keeps one child).  So a
    certificate's cost is the weight of its model, and maximizing these
    costs over certificates reproduces the max-plus optimum.
    """
    check_normalized(c, require_smooth=True)
    kinds, _, pos, neg = c.columns
    bv = c.bit_variables
    weights = {}
    for nid, kind in enumerate(kinds):
        if kind == LIT:
            weights[nid] = w.weight(bv[(pos[nid] | neg[nid]).bit_length() - 1],
                                    1 if pos[nid] else 0)
    cost = {eid: weights[ch] for eid, ch in enumerate(chain.from_iterable(c.record_kids))
            if ch in weights}
    return c, cost


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
    sign = "-" if f < 0 else ""
    text = str(abs(f.numerator) * 10 ** digits // f.denominator).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def to_lp_text(system: LinearSystem, objective: Mapping,
               sense: str = "max", comment: Optional[str] = None) -> str:
    """Render the system in the classic LP file dialect.

    Flow unknowns are declared nonnegative in Bounds, projection unknowns
    free.  Objective and right-hand sides must be exactly representable
    as decimals.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}: use max or min")
    if not system.columns:
        raise ValueError("cannot export a system with no columns")
    names = list(system.column_names.values())      # by column number
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"\\ {ln}")
    lines.append("Maximize" if sense == "max" else "Minimize")
    obj_parts = []
    for col, name in system.column_names.items():
        if col in objective and Fraction(objective[col]) != 0:
            coeff = Fraction(objective[col])
            sign = "-" if coeff < 0 else "+"
            obj_parts.append(f"{sign} {_lp_number(abs(coeff))} {name}")
    lines.append(" obj: " + (" ".join(obj_parts) if obj_parts else "0 " + names[0]))
    lines.append("Subject To")
    start, cols, coef = system.start, system.col, system.coef
    lo, hi = system.nonneg
    idx = 0
    bounds = []
    for r, rhs in enumerate(system.rhs):
        a, b = start[r], start[r + 1]
        if lo <= r < hi and b - a == 1 and coef[a] == 1:
            bounds.append(f" {names[cols[a]]} >= {_lp_number(rhs)}")
            continue
        idx += 1
        terms = " ".join(("+ " if k > 0 else "- ") + names[j]
                         for j, k in zip(cols[a:b], coef[a:b]))
        rel = ">=" if lo <= r < hi else "="
        lines.append(f" c{idx}: {terms or '0 ' + names[0]} {rel} {_lp_number(rhs)}")
    lines.append("Bounds")
    lines.extend(bounds)
    for name in names[system.edge_count:]:
        lines.append(f" {name} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
