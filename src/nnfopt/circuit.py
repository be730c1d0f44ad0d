"""NNF circuits: structure, semantics, normal forms and serialization.

Nodes live in a topologically sorted list (children before parents), so a
single ascending pass implements every bottom-up computation.  Or nodes
may carry a decision marker: either a variable whose value the children
fix in opposite ways, or an opaque pseudo-variable tag (a tuple starting
with a '#' string) recorded by circuit transformations whose children are
model-disjoint by construction.  Edges are first class: edge k is the
k-th (child, parent) pair in parent-major order, and downstream linear
systems attach one unknown per edge id.

Besides the record view (nodes), every circuit has a columnar view over
bitmasks in which an And node may hold a literal block: its literal
children as two masks (positive and negative literals).  The compiler
writes circuits in that form, so its output costs a few words per
decision node; the record view expands each block into literal children
on first use.  Structure checks, evaluation, the optimum and top-k
queries and the cardinality and knapsack transforms read the columnar
view and never expand blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

FALSE, TRUE, LIT, AND, OR = "F", "T", "L", "A", "O"


class CapExceeded(Exception):
    """Raised when an enumeration would return more items than allowed."""


@dataclass(frozen=True)
class StructureReport:
    decomposable: bool
    deterministic: bool
    smooth: bool


def is_pseudo_decision(marker) -> bool:
    return isinstance(marker, tuple) and len(marker) >= 1 and (
        isinstance(marker[0], str) and marker[0].startswith("#"))


def mask_bits(mask: int):
    """Positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NnfCircuit:
    """Immutable NNF circuit over a declared variable universe.

    nodes is a sequence of records:
      (FALSE,) | (TRUE,) | (LIT, variable, sign) |
      (AND, children) | (OR, children, decision)
    where children are tuples of earlier node ids.

    The columnar view (kinds, kids, pos, neg) numbers variables by their
    position in bit_variables.  A literal node has pos or neg set to its
    one bit; an And node's pos/neg masks are its literal block, whose
    literals are children of the node in the record view (in universe
    order, ahead of kids); an Or node keeps its decision marker in pos.
    """

    def __init__(self, variables: Sequence, nodes: Sequence[tuple], output: int) -> None:
        self.variables = tuple(variables)
        self._universe = set(self.variables)
        if len(self._universe) != len(self.variables):
            raise ValueError("duplicate variables in universe")
        self.nodes = tuple(tuple(n) for n in nodes)
        if not (0 <= output < len(self.nodes)):
            raise ValueError("output id out of range")
        self.output = output
        self.bit_variables = self.variables
        for nid, node in enumerate(self.nodes):
            kind = node[0]
            if kind == LIT:
                if node[1] not in self._universe:
                    raise ValueError(f"literal over undeclared variable {node[1]}")
            elif kind in (AND, OR):
                kids = node[1]
                if kids and (min(kids) < 0 or max(kids) >= nid):
                    raise ValueError("children must precede their parent")
            elif kind not in (FALSE, TRUE):
                raise ValueError(f"unknown node kind {kind}")

    @classmethod
    def from_columns(cls, variables: Sequence, bit_variables: Sequence,
                     columns: tuple, output: int) -> "NnfCircuit":
        """Circuit from a columnar view, as the compiler writes it.

        The caller guarantees the invariants the record constructor
        checks: children precede parents, and every literal of a block
        also has its own literal node.
        """
        self = cls.__new__(cls)
        self.variables = tuple(variables)
        self._universe = set(self.variables)
        self.bit_variables = tuple(bit_variables)
        if set(self.bit_variables) != self._universe or \
                len(self.bit_variables) != len(self.variables):
            raise ValueError("bit variables must be a permutation of the universe")
        if not (0 <= output < len(columns[0])):
            raise ValueError("output id out of range")
        self.output = output
        self.columns = columns
        return self

    def __repr__(self) -> str:
        return (f"NnfCircuit({len(self.variables)} vars, {self.node_count} nodes, "
                f"{self.edge_count} edges)")

    # -- views ---------------------------------------------------------------

    @cached_property
    def bit_index(self) -> dict:
        return {v: i for i, v in enumerate(self.bit_variables)}

    @cached_property
    def columns(self) -> tuple:
        """(kinds, kids, pos, neg) lists, one entry per node."""
        bit = self.bit_index
        kinds, kids, pos, neg = [], [], [], []
        for node in self.nodes:
            kind = node[0]
            kinds.append(kind)
            kids.append(node[1] if kind in (AND, OR) else ())
            if kind == LIT:
                b = 1 << bit[node[1]]
                pos.append(b if node[2] else 0)
                neg.append(0 if node[2] else b)
            else:
                pos.append(node[2] if kind == OR else 0)
                neg.append(0)
        return kinds, kids, pos, neg

    @cached_property
    def nodes(self) -> tuple:
        """The record view; a literal block expands to its literal nodes."""
        kinds, kids, pos, neg = self.columns
        bv = self.bit_variables
        order = {v: i for i, v in enumerate(self.variables)}
        lit_id: dict = {}
        for nid, kind in enumerate(kinds):
            if kind == LIT:
                lit_id.setdefault((pos[nid], neg[nid]), nid)
        out = []
        for nid, kind in enumerate(kinds):
            if kind == LIT:
                b = (pos[nid] | neg[nid]).bit_length() - 1
                out.append((LIT, bv[b], bool(pos[nid])))
            elif kind == AND:
                lits = [(order[bv[b]], lit_id[(1 << b, 0)]) for b in mask_bits(pos[nid])]
                lits += [(order[bv[b]], lit_id[(0, 1 << b)]) for b in mask_bits(neg[nid])]
                lits.sort()
                out.append((AND, tuple(i for _, i in lits) + tuple(kids[nid])))
            elif kind == OR:
                out.append((OR, tuple(kids[nid]), pos[nid]))
            else:
                out.append((kind,))
        return tuple(out)

    # -- basic structure ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.columns[0]) if "columns" in self.__dict__ else len(self.nodes)

    def children(self, nid: int) -> tuple:
        node = self.nodes[nid]
        return node[1] if node[0] in (AND, OR) else ()

    def decision(self, nid: int):
        node = self.nodes[nid]
        return node[2] if node[0] == OR else None

    @cached_property
    def edge_list(self) -> tuple:
        """All (child, parent) pairs; the position is the edge id."""
        out = []
        for nid in range(len(self.nodes)):
            for ch in self.children(nid):
                out.append((ch, nid))
        return tuple(out)

    @cached_property
    def edge_count(self) -> int:
        if "columns" not in self.__dict__:
            # a circuit built from records has no literal blocks
            return sum(len(node[1]) for node in self.nodes if node[0] in (AND, OR))
        kinds, kids, pos, neg = self.columns
        count = sum(map(len, kids))
        for kind, a, b in zip(kinds, pos, neg):
            if kind == AND and (a or b):
                count += (a | b).bit_count()
        return count

    @cached_property
    def _edge_maps(self):
        incoming: dict[int, list] = {}
        outgoing: dict[int, list] = {}
        for eid, (ch, par) in enumerate(self.edge_list):
            incoming.setdefault(par, []).append(eid)
            outgoing.setdefault(ch, []).append(eid)
        return incoming, outgoing

    def in_edges(self, nid: int) -> list:
        return self._edge_maps[0].get(nid, [])

    def out_edges(self, nid: int) -> list:
        return self._edge_maps[1].get(nid, [])

    @cached_property
    def var_sets(self) -> tuple:
        sets = []
        for node in self.nodes:
            kind = node[0]
            if kind == LIT:
                sets.append(frozenset((node[1],)))
            elif kind in (AND, OR):
                acc = set()
                for ch in node[1]:
                    acc |= sets[ch]
                sets.append(frozenset(acc))
            else:
                sets.append(frozenset())
        return tuple(sets)

    def reachable_from_output(self) -> list:
        """Ids of the nodes the output reaches, ascending; computed once."""
        got = self.__dict__.get("_reachable")
        if got is None:
            seen = {self.output}
            stack = [self.output]
            while stack:
                nid = stack.pop()
                for ch in self.children(nid):
                    if ch not in seen:
                        seen.add(ch)
                        stack.append(ch)
            got = self._reachable = sorted(seen)
        return got

    def literal_nodes(self) -> dict:
        """Map (variable, sign) -> list of node ids carrying that literal."""
        out: dict = {}
        for nid, node in enumerate(self.nodes):
            if node[0] == LIT:
                out.setdefault((node[1], node[2]), []).append(nid)
        return out


class CircuitBuilder:
    """Accumulates nodes in topological order; literals are deduplicated."""

    def __init__(self, variables: Sequence) -> None:
        self.variables = tuple(variables)
        self.nodes: list[tuple] = []
        self._lits: dict = {}
        self._false: Optional[int] = None
        self._true: Optional[int] = None

    def _add(self, node: tuple) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def false(self) -> int:
        if self._false is None:
            self._false = self._add((FALSE,))
        return self._false

    def true(self) -> int:
        if self._true is None:
            self._true = self._add((TRUE,))
        return self._true

    def literal(self, var, sign: bool) -> int:
        key = (var, bool(sign))
        if key not in self._lits:
            self._lits[key] = self._add((LIT, var, bool(sign)))
        return self._lits[key]

    def add_and(self, children: Iterable[int]) -> int:
        return self._add((AND, tuple(children)))

    def add_or(self, children: Iterable[int], decision=None) -> int:
        return self._add((OR, tuple(children), decision))

    def finish(self, output: int) -> NnfCircuit:
        return NnfCircuit(self.variables, self.nodes, output)


# ---------------------------------------------------------------------------
# semantics


def evaluate(c: NnfCircuit, assignment: Mapping) -> bool:
    """Membership of a total assignment in the circuit's Boolean function.

    Evaluates from the output down and stops at the first false child of
    an And or true child of an Or, so each node is visited at most once.
    """
    missing = c._universe.difference(assignment)
    if missing:
        raise ValueError(f"assignment misses variables, e.g. {next(iter(missing))!r}")
    ones = 0
    for i, var in enumerate(c.bit_variables):
        if assignment[var]:
            ones |= 1 << i
    kinds, kids, pos, neg = c.columns
    value: dict = {}
    stack = [[c.output, 0]]     # node, index of the next child to look at
    while stack:
        frame = stack[-1]
        nid, i = frame
        kind = kinds[nid]
        if kind == OR:
            decided = False
        elif kind == AND or kind == LIT:
            decided = True
            if i == 0 and (pos[nid] & ~ones or neg[nid] & ones):
                value[nid] = False
                stack.pop()
                continue
        else:
            value[nid] = kind == TRUE
            stack.pop()
            continue
        ks = kids[nid]
        while i < len(ks):
            got = value.get(ks[i])
            if got is None:
                break
            if got != decided:
                break
            i += 1
        if i < len(ks) and ks[i] not in value:
            frame[1] = i
            stack.append([ks[i], 0])
            continue
        # all children agree with the default, or one of them overrides it
        value[nid] = decided if i == len(ks) else not decided
        stack.pop()
    return value[c.output]


def check_structure(c: NnfCircuit) -> StructureReport:
    """Structural decomposability, determinism and smoothness.

    Determinism is judged through decision markers only: an Or node passes
    with at most one child, with a pseudo-variable marker (trusted, the
    transformations that write them keep children model-disjoint), or with
    a decision variable whose value each child provably fixes, pairwise
    differently.  A node fixes a variable on structural evidence only:
    literal leaves, the children of an And that mention it and agree, and
    Or nodes whose children all fix it alike.  Semantic determinism of
    arbitrary circuits is not attempted.

    One pass over variable masks; fixed values are tracked as two masks
    over the decision variables, and a child's masks are dropped once its
    last parent has read them.  Circuits are immutable, so the report is
    computed on the first call for a circuit and kept on it.
    """
    rep = c.__dict__.get("_structure")
    if rep is not None:
        return rep
    kinds, kids, pos, neg = c.columns
    bit = c.bit_index
    # Or marker (by identity) -> its variable's bit (0 outside the universe),
    # or None for no marker and for pseudo-variables
    markers = {id(m): m for kind, m in zip(kinds, pos) if kind == OR}
    dbit = {}
    dmask = 0
    for key, m in markers.items():
        if m is None or is_pseudo_decision(m):
            dbit[key] = None
        else:
            dbit[key] = 1 << bit[m] if m in bit else 0
            dmask |= dbit[key]
    refs = [0] * len(kinds)
    for ch in chain.from_iterable(kids):
        refs[ch] += 1
    refs[c.output] += 1
    vm: list = [0] * len(kinds)     # variables mentioned
    f1: list = [0] * len(kinds)     # decision variables fixed to 1
    f0: list = [0] * len(kinds)     # decision variables fixed to 0
    decomposable = smooth = deterministic = True
    marker = d = None                # the last Or marker seen, and its mask
    for nid, (kind, ks, a, b) in enumerate(zip(kinds, kids, pos, neg)):
        if kind == AND or kind == LIT:
            m = a | b
            clash = a & b
            if clash:
                decomposable = False
            x1, x0 = a & dmask, b & dmask
            if not (ks or clash):
                vm[nid], f1[nid], f0[nid] = m, x1, x0
                continue
            not1, not0 = x0, x1
            for ch in ks:
                cm = vm[ch]
                if m & cm:
                    decomposable = False
                m |= cm
                c1, c0, cd = f1[ch], f0[ch], cm & dmask
                x1 |= c1
                x0 |= c0
                not1 |= cd ^ c1     # fixed variables are mentioned ones
                not0 |= cd ^ c0
                refs[ch] -= 1
                if not refs[ch]:
                    vm[ch] = f1[ch] = f0[ch] = 0
            vm[nid], f1[nid], f0[nid] = m, x1 ^ (x1 & not1), x0 ^ (x0 & not0)
        elif kind == OR:
            m = 0
            x1 = x0 = dmask if ks else 0
            for ch in ks:
                m |= vm[ch]
                x1 &= f1[ch]
                x0 &= f0[ch]
            if len(ks) > 1:
                if a is not marker:
                    marker, d = a, dbit[id(a)]
                if a is None:
                    deterministic = False
                elif d is not None:
                    if len(ks) != 2 or not (
                            (f0[ks[0]] & d and f1[ks[1]] & d)
                            or (f1[ks[0]] & d and f0[ks[1]] & d)):
                        deterministic = False
            for ch in ks:
                if vm[ch] != m:
                    smooth = False
                refs[ch] -= 1
                if not refs[ch]:
                    vm[ch] = f1[ch] = f0[ch] = 0
            vm[nid], f1[nid], f0[nid] = m, x1, x0
    c._structure = StructureReport(decomposable, deterministic, smooth)
    return c._structure


# ---------------------------------------------------------------------------
# rebuilding helpers


def _rebuild(c: NnfCircuit, transform) -> NnfCircuit:
    """Rebuild the part of c reachable from the output.

    transform(builder, mapping, nid, node) returns the new id for node;
    literal dedup comes from the builder.
    """
    b = CircuitBuilder(c.variables)
    mapping: dict[int, int] = {}
    for nid in c.reachable_from_output():
        node = c.nodes[nid]
        mapping[nid] = transform(b, mapping, nid, node)
    return b.finish(mapping[c.output])


def _identity_node(b: CircuitBuilder, mapping: dict, node: tuple) -> int:
    kind = node[0]
    if kind == FALSE:
        return b.false()
    if kind == TRUE:
        return b.true()
    if kind == LIT:
        return b.literal(node[1], node[2])
    if kind == AND:
        return b.add_and(mapping[ch] for ch in node[1])
    return b.add_or((mapping[ch] for ch in node[1]), node[2])


def constant_fold(c: NnfCircuit) -> NnfCircuit:
    """Remove constant nodes from the interior of the circuit.

    And nodes drop true children and collapse to false on a false child;
    Or nodes drop false children and collapse to true on a true child.
    Unary gates collapse to their child.  Only the output may remain
    constant.
    """
    b = CircuitBuilder(c.variables)
    mapping: dict[int, int] = {}
    kindof = lambda i: b.nodes[i][0]
    for nid in c.reachable_from_output():
        node = c.nodes[nid]
        kind = node[0]
        if kind in (FALSE, TRUE, LIT):
            mapping[nid] = _identity_node(b, mapping, node)
            continue
        kids = [mapping[ch] for ch in node[1]]
        if kind == AND:
            if any(kindof(k) == FALSE for k in kids):
                mapping[nid] = b.false()
                continue
            kids = [k for k in kids if kindof(k) != TRUE]
            kids = list(dict.fromkeys(kids))
            if not kids:
                mapping[nid] = b.true()
            elif len(kids) == 1:
                mapping[nid] = kids[0]
            else:
                mapping[nid] = b.add_and(kids)
        else:
            if any(kindof(k) == TRUE for k in kids):
                mapping[nid] = b.true()
                continue
            kids_kept = [k for k in kids if kindof(k) != FALSE]
            kids_kept = list(dict.fromkeys(kids_kept))
            if not kids_kept:
                mapping[nid] = b.false()
            elif len(kids_kept) == 1:
                mapping[nid] = kids_kept[0]
            else:
                mapping[nid] = b.add_or(kids_kept, node[2])
    out = mapping[c.output]
    return b.finish(out)


class _Smoother:
    """Shared Or(x, not x) gadgets for padding missing variables."""

    def __init__(self, builder: CircuitBuilder) -> None:
        self.b = builder
        self._order = {v: i for i, v in enumerate(builder.variables)}
        self._gadgets: dict = {}

    def gadget(self, var) -> int:
        if var not in self._gadgets:
            pos = self.b.literal(var, True)
            neg = self.b.literal(var, False)
            self._gadgets[var] = self.b.add_or((pos, neg), var)
        return self._gadgets[var]

    def pad(self, nid: int, missing: Iterable) -> int:
        miss = sorted(missing, key=self._order.__getitem__)
        if not miss:
            return nid
        return self.b.add_and([nid] + [self.gadget(v) for v in miss])


def smooth(c: NnfCircuit) -> NnfCircuit:
    """Pad every Or child up to the variable set of its parent.

    The input must be decomposable; the result is decomposable, smooth
    and computes the same function.  Constants are folded first, so false
    children disappear rather than being padded.
    """
    if not check_structure(c).decomposable:
        raise ValueError("smoothing requires a decomposable circuit")
    folded = constant_fold(c)
    vs = folded.var_sets
    b = CircuitBuilder(folded.variables)
    sm = _Smoother(b)
    mapping: dict[int, int] = {}
    for nid in folded.reachable_from_output():
        node = folded.nodes[nid]
        if node[0] == OR and node[1]:
            kids = [sm.pad(mapping[ch], vs[nid] - vs[ch]) for ch in node[1]]
            mapping[nid] = b.add_or(kids, node[2])
        else:
            mapping[nid] = _identity_node(b, mapping, node)
    return b.finish(mapping[folded.output])


def binarize_and(c: NnfCircuit) -> NnfCircuit:
    """Split And fan-ins above two into nested binary And nodes."""
    def tr(b, mapping, nid, node):
        if node[0] == AND and len(node[1]) > 2:
            kids = [mapping[ch] for ch in node[1]]
            acc = kids[-1]
            for k in reversed(kids[:-1]):
                acc = b.add_and((k, acc))
            return acc
        return _identity_node(b, mapping, node)
    return _rebuild(c, tr)


def pad_to_universe(c: NnfCircuit) -> NnfCircuit:
    """Conjoin free-variable gadgets at the output so the output mentions
    the whole universe; the computed function is unchanged."""
    missing = set(c.variables) - c.var_sets[c.output]
    out_kind = c.nodes[c.output][0]
    if not missing or out_kind == FALSE:
        return c
    b = CircuitBuilder(c.variables)
    mapping: dict[int, int] = {}
    for nid in c.reachable_from_output():
        mapping[nid] = _identity_node(b, mapping, c.nodes[nid])
    sm = _Smoother(b)
    root = mapping[c.output]
    if out_kind == TRUE:
        order = {v: i for i, v in enumerate(c.variables)}
        new_out = b.add_and([sm.gadget(v)
                             for v in sorted(missing, key=order.__getitem__)])
    else:
        new_out = sm.pad(root, missing)
    return b.finish(new_out)


def smooth_binary_form(c: NnfCircuit) -> NnfCircuit:
    """Smooth circuit covering the full universe with binary And nodes.

    The cardinality and knapsack transforms copy a circuit as if it were
    in this form, with the same alternatives in the same order, but on
    the columnar view and without building it.
    """
    return binarize_and(pad_to_universe(smooth(c)))


def normalize_for_extform(c: NnfCircuit) -> NnfCircuit:
    """Normal form consumed by the linear-system extraction.

    The result is smooth over the full universe, has one shared input node
    per literal, an Or output with no outgoing edges, no interior
    constants, and every node on a path to the output.  An unsatisfiable
    circuit becomes a childless Or output.
    """
    if not check_structure(c).decomposable:
        raise ValueError("normalization requires a decomposable circuit")
    padded = pad_to_universe(smooth(c))
    b = CircuitBuilder(padded.variables)
    mapping: dict[int, int] = {}
    for nid in padded.reachable_from_output():
        mapping[nid] = _identity_node(b, mapping, padded.nodes[nid])
    root = mapping[padded.output]
    kind = b.nodes[root][0]
    if kind == FALSE:
        fresh = CircuitBuilder(padded.variables)
        return fresh.finish(fresh.add_or((), None))
    # rebuilding from the output leaves an Or output without parents
    if kind != OR:
        root = b.add_or((root,), None)
    return b.finish(root)


def check_normalized(c: NnfCircuit, require_smooth: bool = True) -> None:
    """Raise ValueError unless c satisfies the extform normal form."""
    if c.nodes[c.output][0] != OR:
        raise ValueError("output must be an Or node")
    if c.out_edges(c.output):
        raise ValueError("output must have no outgoing edges")
    if len(c.reachable_from_output()) != c.node_count:
        raise ValueError("every node must lie on a path to the output")
    lits = c.literal_nodes()
    if any(len(ids) > 1 for ids in lits.values()):
        raise ValueError("each literal may label at most one input")
    for node in c.nodes:
        if node[0] == FALSE:
            raise ValueError("false nodes must be folded away")
    rep = check_structure(c)
    if not rep.decomposable:
        raise ValueError("circuit must be decomposable")
    if require_smooth and not rep.smooth:
        raise ValueError("circuit must be smooth")


def reroot(c: NnfCircuit, nid: int) -> NnfCircuit:
    """Circuit over the same universe computing the function of node nid."""
    sub = NnfCircuit(c.variables, c.nodes, nid)
    return _rebuild(sub, lambda b, mapping, i, node: _identity_node(b, mapping, node))


# ---------------------------------------------------------------------------
# counting and enumeration


def model_count(c: NnfCircuit) -> int:
    """Number of models over the declared universe.

    Requires structural decomposability and determinism.  Smoothness is
    not required: Or children and the output are completed by powers of
    two over the variables they miss.
    """
    rep = check_structure(c)
    if not (rep.decomposable and rep.deterministic):
        raise ValueError("model counting needs a decomposable, deterministic circuit")
    vs = c.var_sets
    counts = []
    for nid, node in enumerate(c.nodes):
        kind = node[0]
        if kind == FALSE:
            counts.append(0)
        elif kind in (TRUE, LIT):
            counts.append(1)
        elif kind == AND:
            n = 1
            for ch in node[1]:
                n *= counts[ch]
            counts.append(n)
        else:
            n = 0
            for ch in node[1]:
                n += counts[ch] << (len(vs[nid]) - len(vs[ch]))
            counts.append(n)
    free = len(c.variables) - len(vs[c.output])
    return counts[c.output] << free


def _complete(rows: Iterable[tuple], have: tuple, fill: list):
    """Each row as a dict over have, extended by every assignment of fill."""
    for bits in rows:
        stack = [dict(zip(have, bits))]
        for v in fill:
            stack = [{**d, v: bval} for d in stack for bval in (0, 1)]
        yield from stack


def enumerate_models(c: NnfCircuit, cap: int = 100000) -> list[dict]:
    """All models over the universe, sorted lexicographically.

    Intended as an oracle for small circuits; raises CapExceeded when any
    intermediate or final model set would exceed cap.  Requires
    decomposability only, so it also works on non-deterministic DNNF.
    """
    if not check_structure(c).decomposable:
        raise ValueError("model enumeration needs a decomposable circuit")
    vs = c.var_sets
    order = {v: i for i, v in enumerate(c.variables)}
    varkey = lambda nid: tuple(sorted(vs[nid], key=order.__getitem__))

    sets: list = []
    for nid, node in enumerate(c.nodes):
        kind = node[0]
        if kind == FALSE:
            sets.append(set())
        elif kind == TRUE:
            sets.append({()})
        elif kind == LIT:
            sets.append({(1 if node[2] else 0,)})
        elif kind == AND:
            kvars = varkey(nid)
            acc = [dict()]
            for ch in node[1]:
                chv = varkey(ch)
                nxt = []
                for partial in acc:
                    for bits in sets[ch]:
                        d = dict(partial)
                        d.update(zip(chv, bits))
                        nxt.append(d)
                        if len(nxt) > cap:
                            raise CapExceeded("model cap exceeded")
                acc = nxt
            sets.append({tuple(d[v] for v in kvars) for d in acc})
        else:
            kvars = varkey(nid)
            merged = set()
            for ch in node[1]:
                chv = varkey(ch)
                have = set(chv)
                fill = [v for v in kvars if v not in have]
                for d in _complete(sets[ch], chv, fill):
                    merged.add(tuple(d[v] for v in kvars))
                    if len(merged) > cap:
                        raise CapExceeded("model cap exceeded")
            sets.append(merged)
        if len(sets[-1]) > cap:
            raise CapExceeded("model cap exceeded")

    out_vars = varkey(c.output)
    free = [v for v in c.variables if v not in set(out_vars)]
    total = len(sets[c.output]) << len(free)
    if total > cap:
        raise CapExceeded("model cap exceeded")
    models = list(_complete(sorted(sets[c.output]), out_vars, free))
    models.sort(key=lambda d: tuple(d[v] for v in c.variables))
    return models


# ---------------------------------------------------------------------------
# c2d-style text format


def to_nnf_text(c: NnfCircuit) -> str:
    """Serialize in the classic knowledge-compiler text format.

    Variables are numbered by their position in the universe.  True is
    written as an empty And, false as an empty Or.  Pseudo-variable
    decision markers cannot be expressed and are written as 0.
    """
    num = {v: i + 1 for i, v in enumerate(c.variables)}
    lines = [f"nnf {c.node_count} {c.edge_count} {len(c.variables)}"]
    for node in c.nodes:
        kind = node[0]
        if kind == TRUE:
            lines.append("A 0")
        elif kind == FALSE:
            lines.append("O 0 0")
        elif kind == LIT:
            n = num[node[1]]
            lines.append(f"L {n if node[2] else -n}")
        elif kind == AND:
            lines.append("A " + " ".join(str(x) for x in (len(node[1]),) + node[1]))
        else:
            d = node[2]
            dnum = num[d] if (d is not None and not is_pseudo_decision(d)) else 0
            lines.append(f"O {dnum} " + " ".join(str(x) for x in (len(node[1]),) + node[1]))
    return "\n".join(lines) + "\n"


def from_nnf_text(text: str, variables: Optional[Sequence] = None) -> NnfCircuit:
    """Parse the text format; the last node is the output.

    When no explicit universe is given, variables are the integers
    1..n from the header.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("nnf"):
        raise ValueError("missing nnf header")
    try:
        ncount, ecount, nvars = (int(x) for x in lines[0].split()[1:])
    except Exception as exc:
        raise ValueError("malformed nnf header") from exc
    if variables is None:
        variables = tuple(range(1, nvars + 1))
    variables = tuple(variables)
    if len(variables) != nvars:
        raise ValueError("universe size disagrees with header")
    nodes: list[tuple] = []
    for ln in lines[1:]:
        fields = ln.split()
        tag = fields[0]
        args = [int(x) for x in fields[1:]]
        if tag == "L":
            [lit] = args
            if not (1 <= abs(lit) <= nvars):
                raise ValueError(f"literal {lit} out of range")
            nodes.append((LIT, variables[abs(lit) - 1], lit > 0))
        elif tag == "A":
            if not args or args[0] != len(args) - 1:
                raise ValueError(f"bad And line: {ln}")
            if args[0] == 0:
                nodes.append((TRUE,))
            else:
                nodes.append((AND, tuple(args[1:])))
        elif tag == "O":
            if len(args) < 2 or args[1] != len(args) - 2:
                raise ValueError(f"bad Or line: {ln}")
            if args[1] == 0:
                nodes.append((FALSE,))
            else:
                d = variables[args[0] - 1] if args[0] else None
                nodes.append((OR, tuple(args[2:]), d))
        else:
            raise ValueError(f"unknown node tag {tag}")
    if len(nodes) != ncount:
        raise ValueError("node count disagrees with header")
    c = NnfCircuit(variables, nodes, len(nodes) - 1)
    if c.edge_count != ecount:
        raise ValueError("edge count disagrees with header")
    return c
