"""NNF circuits: structure, semantics, normal forms and serialization.

Node kinds are LIT, AND and OR.  The constants are empty gates: true is
an And with no children or literals, false an Or with no children, and
each pass's And and Or rules give them their values.  Nodes are numbered
in topological order (children before parents), so a single ascending
pass implements every bottom-up computation.  An Or node's decision
marker is the bit position of a variable whose value its children fix
in opposite ways, SELECTOR for an Or whose children a transformation
made model-disjoint by construction, or None.

Circuits are stored only as columns over bitmasks, in which an And node
may hold a literal block: its literal children as two masks (positive
and negative literals).  The compiler, CircuitBuilder and the text
parser write that form, so compiled output costs a few words per
decision node; every query, rebuild and the text writer reads it.

The passes that read a circuit as if it were smooth (model counting,
enumeration, top-k, the cardinality and knapsack copies and the extform
normal form) are semirings over one bottom-up pass, smooth_fold: it
keeps the variables each node mentions and pads Or children and the
output over those they miss, so no pass builds the smooth form.
Edges are first class: downstream linear systems attach one unknown per
edge id, numbered as NnfCircuit states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from math import prod
from typing import Iterable, Mapping, Optional, Sequence

LIT, AND, OR = "L", "A", "O"
SELECTOR = -1   # the marker of an Or whose determinism is trusted


class CapExceeded(Exception):
    """Raised when an enumeration would return more items than allowed."""


@dataclass(frozen=True)
class StructureReport:
    decomposable: bool
    deterministic: bool
    smooth: bool


def mask_bits(mask: int):
    """Positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NnfCircuit:
    """Immutable NNF circuit over a declared variable universe.

    Columns are the only stored form: columns is (kinds, kids, pos,
    neg), four lists with one entry per node, children before parents.
    Variables are numbered by their position in bit_variables.  A
    literal node (LIT) has pos or neg set to its one bit; an And node's
    pos/neg masks are its literal block; an Or node keeps its decision
    marker in pos (a bit position, SELECTOR or None), so the columns hold
    only ints and None.  True is an empty And, false an empty Or.

    record_kids lists each node's children with every block expanded to
    its literal nodes, in universe order, ahead of the other kids.  Edge
    ids count these children in parent order: edge k is the k-th
    (child, parent) pair of record_kids, parent by parent.

    The constructor checks the universe and the output id.  Writers keep
    children before parents (CircuitBuilder and from_nnf_text check it)
    and give every literal of a block its own literal node.
    """

    def __init__(self, variables: Sequence, bit_variables: Sequence,
                 columns: tuple, output: int) -> None:
        self.variables = tuple(variables)
        self._universe = set(self.variables)
        if len(self._universe) != len(self.variables):
            raise ValueError("duplicate variables in universe")
        self.bit_variables = tuple(bit_variables)
        if set(self.bit_variables) != self._universe or \
                len(self.bit_variables) != len(self.variables):
            raise ValueError("bit variables must be a permutation of the universe")
        if not (0 <= output < len(columns[0])):
            raise ValueError("output id out of range")
        self.output = output
        self.columns = columns

    def __repr__(self) -> str:
        return (f"NnfCircuit({len(self.variables)} vars, {self.node_count} nodes, "
                f"{self.edge_count} edges)")

    # -- views ---------------------------------------------------------------

    @cached_property
    def bit_index(self) -> dict:
        return {v: i for i, v in enumerate(self.bit_variables)}

    @cached_property
    def universe_rank(self) -> tuple:
        """Universe position of the variable at each bit position."""
        upos = {v: i for i, v in enumerate(self.variables)}
        return tuple(upos[v] for v in self.bit_variables)

    @cached_property
    def record_kids(self) -> tuple:
        """Each node's children with its literal block expanded: the block's
        literal nodes, in universe order, ahead of the other kids.

        A literal with several nodes reads as the first of them, and a
        variable in both masks of a block lists its two literals by node
        id.  One table per sign gives each bit the packed int
        rank << shift | node of its literal, so a block costs one walk over
        its set bits, from the top, and one sort of small ints.  A block
        literal without a node raises ValueError."""
        kinds, kids, pos, neg = self.columns
        if not any(a or b for kind, a, b in zip(kinds, pos, neg) if kind == AND):
            return tuple(kids)
        shift = len(kinds).bit_length()
        low = (1 << shift) - 1
        rank = self.universe_rank
        bit = [1 << i for i in range(len(rank))]
        where = {m: i for i, m in enumerate(bit)}
        tpos, tneg = [None] * len(bit), [None] * len(bit)
        for nid, kind in enumerate(kinds):
            if kind == LIT and not (pos[nid] and neg[nid]):
                table = tpos if pos[nid] else tneg
                i = where.get(pos[nid] or neg[nid])
                if i is not None and table[i] is None:
                    table[i] = rank[i] << shift | nid
        out = list(kids)
        try:
            for nid, kind in enumerate(kinds):
                if kind == AND and (pos[nid] or neg[nid]):
                    a, b = pos[nid], neg[nid]
                    keys = []
                    while a:
                        i = a.bit_length() - 1
                        keys.append(tpos[i])
                        a ^= bit[i]
                    while b:
                        i = b.bit_length() - 1
                        keys.append(tneg[i])
                        b ^= bit[i]
                    keys.sort()
                    out[nid] = tuple([k & low for k in keys]) + tuple(kids[nid])
        except (TypeError, IndexError):     # a literal the tables have no node for
            raise ValueError(f"And node {nid} holds a literal that has no literal node") \
                from None
        return tuple(out)

    # -- basic structure ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.columns[0])

    @cached_property
    def edge_count(self) -> int:
        kinds, kids, pos, neg = self.columns
        count = sum(map(len, kids))
        for kind, a, b in zip(kinds, pos, neg):
            if kind == AND and (a or b):
                count += (a | b).bit_count()
        return count


class CircuitBuilder:
    """Accumulates nodes in topological order as columns; literals and the
    two constants, the empty And and the empty Or, are deduplicated."""

    def __init__(self, variables: Sequence) -> None:
        self.variables = tuple(variables)
        self.columns: tuple = ([], [], [], [])
        self._bit = {v: i for i, v in enumerate(self.variables)}
        self._leaves: dict = {}     # AND (true), OR (false) or (variable, sign) -> node

    def _leaf(self, key, kind, a=0, b=0) -> int:
        if key not in self._leaves:
            self._leaves[key] = add_node(self.columns, kind, (), a, b)
        return self._leaves[key]

    def false(self) -> int:
        return self._leaf(OR, OR, None)

    def true(self) -> int:
        return self._leaf(AND, AND)

    def literal(self, var, sign: bool) -> int:
        if var not in self._bit:
            raise ValueError(f"literal over undeclared variable {var}")
        bit = 1 << self._bit[var]
        return self._leaf((var, bool(sign)), LIT, *((bit, 0) if sign else (0, bit)))

    def add_and(self, children: Iterable[int]) -> int:
        return add_gate(self.columns, AND, tuple(children))

    def add_or(self, children: Iterable[int], decision=None) -> int:
        """An Or node deciding a declared variable, or marked None or SELECTOR."""
        if decision in self._bit:
            decision = self._bit[decision]
        elif decision is not None and decision != SELECTOR:
            raise ValueError(f"decision on undeclared variable {decision}")
        return add_gate(self.columns, OR, tuple(children), decision)

    def finish(self, output: int) -> NnfCircuit:
        columns = tuple(list(col) for col in self.columns)
        return NnfCircuit(self.variables, self.variables, columns, output)


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
        else:
            decided = True
            if i == 0 and (pos[nid] & ~ones or neg[nid] & ones):
                value[nid] = False
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


def _decision_markers(c: NnfCircuit) -> set:
    """The Or markers other than None and SELECTOR; each must be a bit
    position of c's variables, else ValueError."""
    kinds, _, pos, _ = c.columns
    markers = {m for kind, m in zip(kinds, pos) if kind == OR} - {None, SELECTOR}
    n = len(c.bit_variables)
    bad = [m for m in markers if not (type(m) is int and 0 <= m < n)]
    if bad:
        raise ValueError(f"Or marker {bad[0]!r} is not a bit position of the {n} variables")
    return markers


def check_structure(c: NnfCircuit) -> StructureReport:
    """Structural decomposability, determinism and smoothness.

    Determinism is judged through decision markers only: an Or node passes
    with at most one child, marked SELECTOR (trusted, the transformations
    that write it keep children model-disjoint), or marked by the bit of
    a decision variable whose value each child provably fixes, pairwise
    differently.  A node fixes a variable on structural evidence only:
    literal leaves, the children of an And that mention it and agree, and
    Or nodes whose children all fix it alike.  Semantic determinism of
    arbitrary circuits is not attempted.  Any other marker is a
    ValueError.

    One pass over variable masks; fixed values are tracked as two masks
    over the decision variables.  A fixed variable is a mentioned one, so
    an And whose block and children mention pairwise disjoint variables
    fixes exactly what they fix together; only where two of them overlap
    (which already breaks decomposability) does the pass record the
    overlapping variables that some part leaves unfixed.  An Or is
    smooth when each child mentions what its first child does.  A
    child's masks are dropped as soon as its last parent has read them,
    found by counting parents.  Circuits are immutable, so the report is
    computed on the first call for a circuit and kept on it.
    """
    rep = c.__dict__.get("_structure")
    if rep is not None:
        return rep
    kinds, kids, pos, neg = c.columns
    # decision marker -> its variable's mask, one shift per distinct marker
    dbit = {m: 1 << m for m in _decision_markers(c)}
    dmask = sum(dbit.values())
    refs = [0] * len(kinds)
    for ch in chain.from_iterable(kids):
        refs[ch] += 1
    refs[c.output] += 1
    vm: list = [0] * len(kinds)     # variables mentioned
    f1: list = [0] * len(kinds)     # decision variables fixed to 1
    f0: list = [0] * len(kinds)     # decision variables fixed to 0
    decomposable = smooth = deterministic = True
    for nid, (kind, ks, a, b) in enumerate(zip(kinds, kids, pos, neg)):
        if kind != OR:
            m, x1, x0 = a | b, a & dmask, b & dmask
            if not ks and not a & b:
                vm[nid], f1[nid], f0[nid] = m, x1, x0
                continue
            # overlapping variables that not every part fixes to 1 (to 0)
            not1 = not0 = a & b
            for ch in ks:
                cm = vm[ch]
                if m & cm:
                    o = m & cm
                    not1 |= o ^ (o & x1 & f1[ch])
                    not0 |= o ^ (o & x0 & f0[ch])
                m |= cm
                x1 |= f1[ch]
                x0 |= f0[ch]
                r = refs[ch] - 1
                refs[ch] = r
                if not r:
                    vm[ch] = f1[ch] = f0[ch] = 0
            if not1 or not0:
                decomposable = False
                x1 ^= x1 & not1
                x0 ^= x0 & not0
            vm[nid], f1[nid], f0[nid] = m, x1, x0
        elif ks:
            if len(ks) > 1 and a != SELECTOR:
                if a is None:
                    deterministic = False
                else:
                    d = dbit[a]
                    if len(ks) != 2 or not (
                            (f0[ks[0]] & d and f1[ks[1]] & d)
                            or (f1[ks[0]] & d and f0[ks[1]] & d)):
                        deterministic = False
            k = ks[0]
            m, x1, x0 = vm[k], f1[k], f0[k]
            for ch in ks:
                cm = vm[ch]
                if cm != m:
                    smooth = False
                    m |= cm
                x1 &= f1[ch]
                x0 &= f0[ch]
                r = refs[ch] - 1
                refs[ch] = r
                if not r:
                    vm[ch] = f1[ch] = f0[ch] = 0
            vm[nid], f1[nid], f0[nid] = m, x1, x0
    c._structure = StructureReport(decomposable, deterministic, smooth)
    return c._structure


# ---------------------------------------------------------------------------
# rebuilds over the columnar view

FOLD_FALSE, FOLD_TRUE = -1, -2


def fold_constants(c: NnfCircuit) -> tuple[tuple, int]:
    """Constant folding on the columnar view, without writing a node.

    Returns (live, root).  live lists the nodes that stay, ascending, as
    (nid, kind, kids, a, b): the first literal node of each literal,
    reached or not, and each gate the output reaches that stays, with
    kids the live representatives of its children, in order and without
    repeats, and a, b its literal block (And) or its marker and 0 (Or).
    And nodes drop true children and fold to false on a false child; Or
    nodes drop false children and fold to true on a true child.  A
    one-literal block becomes the And's first child; a gate left with one
    child and no block folds to that child, and with none to its
    constant, FOLD_TRUE or FOLD_FALSE (so no live row is an empty gate).
    root is the output's representative: a live node id or a constant.
    Circuits are immutable, so the result is computed on the first call
    for a circuit and kept on it; the
    cardinality, knapsack and normal-form passes all start from it.
    """
    folded = c.__dict__.get("_folded")
    if folded is not None:
        return folded
    kinds, kids, pos, neg = c.columns
    count = len(kinds)
    rep = [FOLD_FALSE] * count      # folded node: a live node id or a constant
    first: dict = {}                # (pos, neg) -> first literal node
    for nid, kind in enumerate(kinds):
        if kind == LIT:
            rep[nid] = first.setdefault((pos[nid], neg[nid]), nid)
    out = c.output
    reach = bytearray(count)
    reach[out] = 1
    for nid in range(out, -1, -1):
        if reach[nid]:
            for ch in kids[nid]:
                reach[ch] = 1
    live = []
    for nid, kind in enumerate(kinds):
        if kind == LIT:
            if rep[nid] == nid:
                live.append((nid, LIT, (), pos[nid], neg[nid]))
        elif not reach[nid]:
            continue
        elif kind == AND:
            ks = []
            for ch in kids[nid]:
                r = rep[ch]
                if r == FOLD_FALSE:
                    break
                if r != FOLD_TRUE:
                    ks.append(r)
            else:
                if len(ks) > 1:
                    ks = list(dict.fromkeys(ks))
                a, b = pos[nid], neg[nid]
                m = a | b
                if m and not m & (m - 1):   # a one-literal block: its literal node
                    ks.insert(0, first[(a, b)])
                    a = b = 0
                if not (a or b) and len(ks) < 2:
                    rep[nid] = ks[0] if ks else FOLD_TRUE
                else:
                    rep[nid] = nid
                    live.append((nid, AND, tuple(ks), a, b))
        else:
            ks = []
            for ch in kids[nid]:
                r = rep[ch]
                if r == FOLD_TRUE:
                    rep[nid] = FOLD_TRUE
                    break
                if r != FOLD_FALSE:
                    ks.append(r)
            else:
                if len(ks) > 1:
                    ks = list(dict.fromkeys(ks))
                if len(ks) < 2:
                    rep[nid] = ks[0] if ks else FOLD_FALSE
                else:
                    rep[nid] = nid
                    live.append((nid, OR, tuple(ks), pos[nid], 0))
    c._folded = (tuple(live), rep[out])
    return c._folded


def smooth_fold(c: NnfCircuit, rows: Iterable, root: int, leaf, and_, or_, pad, one, zero):
    """Evaluate a decomposable circuit bottom-up as if it were smooth over
    its universe, without building the smooth form.

    rows are (nid, kind, kids, a, b), ascending: zip(count(), *c.columns)
    or fold_constants(c)'s live rows, whose root may be FOLD_TRUE or
    FOLD_FALSE.  Tracking the variables each node mentions, the fold calls
    leaf(a, b) per literal, and_(a, b, values) per And node with literal
    block a, b, and or_(marker, values) per Or node, each child's value
    padded first by pad(value, missing) when the mask of the variables it
    misses is nonzero.  An empty And or Or is valued by and_ or or_ over
    no values; a FOLD_TRUE root is one, and a FOLD_FALSE root gives zero
    unpadded.  Any other root's value comes back padded to the universe.
    """
    vm = [0] * c.node_count     # variables mentioned
    val: list = [None] * c.node_count
    for nid, kind, ks, a, b in rows:
        if kind == AND:
            m = a | b
            for r in ks:
                m |= vm[r]
            vm[nid] = m
            val[nid] = and_(a, b, [val[r] for r in ks])
        elif kind == OR:
            m = 0
            for r in ks:
                m |= vm[r]
            vm[nid] = m
            val[nid] = or_(a, [pad(val[r], missing) if (missing := m ^ vm[r]) else val[r]
                               for r in ks])
        else:
            vm[nid] = a | b
            val[nid] = leaf(a, b)
    if root == FOLD_FALSE:
        return zero
    value, m = (one, 0) if root == FOLD_TRUE else (val[root], vm[root])
    missing = ((1 << len(c.variables)) - 1) ^ m
    return pad(value, missing) if missing else value


def add_node(columns: tuple, kind, kids: tuple = (), a=0, b=0) -> int:
    """Append a node to (kinds, kids, pos, neg) lists; returns its id."""
    kinds, ks, pos, neg = columns
    kinds.append(kind)
    ks.append(kids)
    pos.append(a)
    neg.append(b)
    return len(kinds) - 1


def add_gate(columns: tuple, kind, kids: tuple = (), a=0) -> int:
    """add_node for nodes written by hand or read from text: the children
    must be ids of nodes already in the columns."""
    if kids and (min(kids) < 0 or max(kids) >= len(columns[0])):
        raise ValueError("children must precede their parent")
    return add_node(columns, kind, kids, a)


def _compact(columns: tuple, root: int) -> tuple:
    """Drop the nodes the root cannot reach, keeping the order of the rest.

    A literal node stays when a kept block holds its literal.  When every
    node stays, the columns come back as they are.
    """
    kinds, kids, pos, neg = columns
    seen = bytearray(len(kinds))
    seen[root] = 1
    blocks = [0, 0]
    for nid in range(len(kinds) - 1, -1, -1):
        if seen[nid]:
            for ch in kids[nid]:
                seen[ch] = 1
            if kinds[nid] == AND:
                blocks[1] |= pos[nid]
                blocks[0] |= neg[nid]
    for nid, kind in enumerate(kinds):
        if kind == LIT and (pos[nid] & blocks[1] or neg[nid] & blocks[0]):
            seen[nid] = 1
    if all(seen):
        return columns, root
    new_id = {}
    out = ([], [], [], [])
    for nid, keep in enumerate(seen):
        if keep:
            new_id[nid] = len(out[0])
            out[0].append(kinds[nid])
            out[1].append(tuple(new_id[ch] for ch in kids[nid]))
            out[2].append(pos[nid])
            out[3].append(neg[nid])
    return out, new_id[root]


def normalize_for_extform(c: NnfCircuit) -> NnfCircuit:
    """Normal form consumed by the linear-system extraction.

    The result is smooth over the full universe, has one shared input node
    per literal, an Or output with no outgoing edges, no interior
    constants, and every node on a path to the output.  An unsatisfiable
    circuit becomes a childless Or output.

    A copy by smooth_fold over the folded rows: each literal is copied
    once, and padding writes And(child, gadget...) over the missing
    variables, in universe order, where the gadget of a variable is
    Or(positive, negative) marked by that variable.  The padded output,
    unless it is an Or, is wrapped in a unary Or.  Literal blocks stay
    whole.
    """
    if not check_structure(c).decomposable:
        raise ValueError("normalization requires a decomposable circuit")
    bv = c.bit_variables
    rank = c.universe_rank
    out = ([], [], [], [])
    lits: dict = {}         # (pos, neg) -> literal node
    gadgets: dict = {}      # bit -> its gadget

    def literal(a: int, b: int) -> int:
        got = lits.get((a, b))
        if got is None:
            got = lits[(a, b)] = add_node(out, LIT, (), a, b)
        return got

    def gadget(i: int) -> int:
        got = gadgets.get(i)
        if got is None:
            got = gadgets[i] = add_node(out, OR, (literal(1 << i, 0), literal(0, 1 << i)), i)
        return got

    def pad(node, missing: int) -> int:     # node None stands for true
        pads = [gadget(i) for i in sorted(mask_bits(missing), key=rank.__getitem__)]
        return add_node(out, AND, tuple(pads) if node is None else (node, *pads))

    top = smooth_fold(c, *fold_constants(c), literal,
                      lambda a, b, ks: add_node(out, AND, tuple(ks), a, b),
                      lambda d, ks: add_node(out, OR, tuple(ks), d), pad, None, FOLD_FALSE)
    if top == FOLD_FALSE:
        top = add_node(out, OR, (), None)
    elif top is None:
        top = add_node(out, AND)
    if out[0][top] != OR:
        top = add_node(out, OR, (top,), None)
    columns, top = _compact(out, top)
    return NnfCircuit(c.variables, bv, columns, top)


def smooth_binary_form(c: NnfCircuit) -> NnfCircuit:
    """Smooth circuit covering the full universe with And fan-in at most two.

    The normal form of normalize_for_extform, with each wider And split
    into right-nested binary And nodes over its record_kids.
    The cardinality and knapsack transforms copy a circuit as if it were
    in this form, with the same alternatives in the same order, but on
    the columnar view and without building it.
    """
    n = normalize_for_extform(c)
    kinds, _, pos, neg = n.columns
    out = ([], [], [], [])
    new: list = []
    for kind, ks, a, b in zip(kinds, n.record_kids, pos, neg):
        ks = tuple(new[k] for k in ks)
        if kind != AND:
            new.append(add_node(out, kind, ks, a, b))
        elif len(ks) > 2:
            top = ks[-1]
            for k in reversed(ks[:-1]):
                top = add_node(out, AND, (k, top))
            new.append(top)
        else:
            new.append(add_node(out, AND, ks))
    return NnfCircuit(n.variables, n.bit_variables, out, new[n.output])


def check_normalized(c: NnfCircuit, require_smooth: bool = True) -> None:
    """Raise ValueError unless c satisfies the extform normal form.

    Circuits are immutable, so the rules other than smoothness are
    checked on the first call for a circuit and their verdict (the
    message of the first rule broken, or "" when none is) is kept on it;
    a failing circuit raises the same ValueError on every call.
    Smoothness is read from check_structure's kept report, so
    require_smooth=False accepts a circuit that fails only smoothness.
    """
    verdict = c.__dict__.get("_normal")
    if verdict is None:
        kinds, kids, pos, neg = c.columns
        lits = [(a, b) for kind, a, b in zip(kinds, pos, neg) if kind == LIT]
        if kinds[c.output] != OR:
            verdict = "output must be an Or node"
        elif any(c.output in ks for ks in kids[c.output + 1:]):
            verdict = "output must have no outgoing edges"
        elif _compact(c.columns, c.output)[0] is not c.columns:
            verdict = "every node must lie on a path to the output"
        elif len(set(lits)) != len(lits):
            verdict = "each literal may label at most one input"
        elif any(kind == OR and not ks for kind, ks in zip(kinds, kids[:c.output])):
            verdict = "false nodes must be folded away"
        elif not check_structure(c).decomposable:
            verdict = "circuit must be decomposable"
        else:
            verdict = ""
        c._normal = verdict
    if verdict:
        raise ValueError(verdict)
    if require_smooth and not check_structure(c).smooth:
        raise ValueError("circuit must be smooth")


def reroot(c: NnfCircuit, nid: int) -> NnfCircuit:
    """Circuit over the same universe computing the function of node nid."""
    columns, root = _compact(c.columns, nid)
    return NnfCircuit(c.variables, c.bit_variables, columns, root)


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
    # a block's literals have one model; padding doubles per missing variable
    return smooth_fold(c, zip(count(), *c.columns), c.output, lambda a, b: 1,
                       lambda a, b, counts: prod(counts), lambda d, counts: sum(counts),
                       lambda n, missing: n << missing.bit_count(), 1, 0)


def enumerate_models(c: NnfCircuit, cap: int = 100000) -> list[dict]:
    """All models over the universe, sorted lexicographically.

    Intended as an oracle for small circuits; raises CapExceeded when any
    intermediate or final model set would exceed cap.  Requires
    decomposability only, so it also works on non-deterministic DNNF.
    Models are held as masks of the variables set to 1.
    """
    if not check_structure(c).decomposable:
        raise ValueError("model enumeration needs a decomposable circuit")

    def capped(models):
        if len(models) > cap:
            raise CapExceeded("model cap exceeded")
        return models

    def completed(models, free: int) -> list:
        if len(models) << free.bit_count() > cap:
            raise CapExceeded("model cap exceeded")
        out = list(models)
        for i in mask_bits(free):
            out += [x | 1 << i for x in out]
        return out

    def product(a: int, b: int, sets: list) -> set:
        acc = {a}
        for models in sets:
            if len(acc) * len(models) > cap:
                raise CapExceeded("model cap exceeded")
            acc = {x | y for x in acc for y in models}
        return capped(acc)

    models = capped(smooth_fold(c, zip(count(), *c.columns), c.output, lambda a, b: {a},
                                product, lambda d, sets: capped(set().union(*sets)),
                                completed, {0}, set()))
    bits = [c.bit_index[v] for v in c.variables]
    rows = sorted(tuple(x >> i & 1 for i in bits) for x in models)
    return [dict(zip(c.variables, row)) for row in rows]


# ---------------------------------------------------------------------------
# c2d-style text format


def to_nnf_text(c: NnfCircuit) -> str:
    """Serialize in the classic knowledge-compiler text format.

    Variables are numbered by their position in the universe.  True is
    written as an empty And, false as an empty Or, and a literal block as
    And edges to its literal nodes.  SELECTOR cannot be expressed and is
    written as 0, like no marker; any other marker outside the bit
    positions is a ValueError, as in check_structure.
    """
    _decision_markers(c)
    num = {v: i + 1 for i, v in enumerate(c.variables)}
    bv = c.bit_variables
    kinds, _, pos, neg = c.columns
    lines = [f"nnf {c.node_count} {c.edge_count} {len(c.variables)}"]
    for kind, ks, a, b in zip(kinds, c.record_kids, pos, neg):
        if kind == LIT:
            n = num[bv[(a | b).bit_length() - 1]]
            lines.append(f"L {n if a else -n}")
            continue
        head = "A" if kind == AND else f"O {0 if a in (None, SELECTOR) else num[bv[a]]}"
        lines.append(" ".join([head, str(len(ks)), *map(str, ks)]))
    return "\n".join(lines) + "\n"


def from_nnf_text(text: str, variables: Optional[Sequence] = None) -> NnfCircuit:
    """Parse the text format node for node; the last node is the output.

    When no explicit universe is given, variables are the integers
    1..n from the header, and n may not exceed the length of the text,
    so that a short text cannot demand a huge universe.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("nnf"):
        raise ValueError("missing nnf header")
    try:
        ncount, ecount, nvars = (int(x) for x in lines[0].split()[1:])
    except Exception as exc:
        raise ValueError("malformed nnf header") from exc
    if variables is None:
        if nvars > len(text):
            raise ValueError("header declares more variables than the text has characters")
        variables = tuple(range(1, nvars + 1))
    variables = tuple(variables)
    if len(variables) != nvars:
        raise ValueError("universe size disagrees with header")
    columns: tuple = ([], [], [], [])
    for ln in lines[1:]:
        fields = ln.split()
        tag = fields[0]
        args = [int(x) for x in fields[1:]]
        if tag == "L":
            [lit] = args
            if not (1 <= abs(lit) <= nvars):
                raise ValueError(f"literal {lit} out of range")
            bit = 1 << (abs(lit) - 1)
            add_node(columns, LIT, (), *((bit, 0) if lit > 0 else (0, bit)))
        elif tag == "A":
            if not args or args[0] != len(args) - 1:
                raise ValueError(f"bad And line: {ln}")
            add_gate(columns, AND, tuple(args[1:]))
        elif tag == "O":
            if len(args) < 2 or args[1] != len(args) - 2:
                raise ValueError(f"bad Or line: {ln}")
            if not 0 <= args[0] <= nvars:
                raise ValueError(f"decision variable {args[0]} out of range")
            add_gate(columns, OR, tuple(args[2:]), args[0] - 1 if args[0] else None)
        else:
            raise ValueError(f"unknown node tag {tag}")
    if len(columns[0]) != ncount:
        raise ValueError("node count disagrees with header")
    c = NnfCircuit(variables, variables, columns, ncount - 1)
    if c.edge_count != ecount:
        raise ValueError("edge count disagrees with header")
    return c
