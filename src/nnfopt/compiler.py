"""Compilation of CNF formulas into decision-DNNF circuits.

Exhaustive search with unit propagation, connected-component splitting
and component caching.  Branches become Or nodes marked by their decision
bit, component splits become decomposable And nodes, and the literals
implied at a search node become the literal block of an And node, so
the output is deterministic and decomposable by construction.

The search state is four bitmasks over the variables in branch order:
the variables set to 1, those set to 0, the gates decided 0 while none
of their inputs has failed, and the chained gates with a failed input.
The next decision is the lowest free bit of a component.  Definitional
clause groups y <-> l_1 & ... & l_k (one clause y | -l_1 | ... | -l_k
plus k links, with y in no other clause and no input defined itself) are
recognized as gates: plain gates with the links -y | l_i of the basic
encoding, and chained gates with the links -y | l_j | -l_{j+1} | ... |
-l_k of the ordered encoding.  A failing input sets the outputs of all
the plain gates it feeds to 0 in one mask operation; a chained gate's
output falls to 0 once its last input that does not hold has failed; a
gate decided 0 forces its last input that does not hold to fail; outputs
whose inputs all hold are set to 1 once the free inputs of the component
are known.  Every other clause is propagated through occurrence lists,
and the root reads all of them through the same rule, so its unit
clauses seed the propagation.  The residual clauses of a gate whose
output is free depend only on which of its inputs are free, except for a
chained gate with a failed input, which also keeps that input's link; so
a component's residual clause set is determined by its variable set plus
those links and its other residual clauses, and that pair is its cache
key.  Only the gates in the fourth mask have such a cut, so the residual
step walks the links of those gates alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

from .circuit import AND, LIT, OR, NnfCircuit, _compact, mask_bits
from .cnf import CnfFormula, CnfVariable, encode_basic, encode_ordered, \
    formula_incidence_graph
from .hypergraph import Hypergraph, LiteralInstance, TreeDecomposition, \
    beta_elimination_order, minfill_decomposition

log = logging.getLogger(__name__)

_FAIL = -1      # search result of an unsatisfiable clause set; never a node


@dataclass
class CompileConfig:
    """Search knobs.

    order_hint, when given, must be a permutation of the formula's
    variables; branching follows it.  Without a hint variables are
    branched in declaration order.  cache_budget caps the number of
    cached components; beyond it compilation continues without reuse.
    """

    order_hint: Optional[Sequence[CnfVariable]] = None
    cache_budget: int = 1_000_000


def _find_gates(clauses) -> dict:
    """Definitional groups among int-literal clauses.

    Returns output -> (input literals, chained).  Besides the clause
    y | -l_1 | ... | -l_k, a plain gate has the links -y | l_i and a
    chained gate, as the ordered encoding writes it, the links
    -y | l_j | -l_{j+1} | ... | -l_k, with the inputs in that order.  A
    gate's clauses mention its output and nothing else does; gates whose
    inputs include another gate's output are left as plain clauses.
    """
    occ: dict[int, list] = {}
    for cl in clauses:
        for lit in cl:
            occ.setdefault(abs(lit), []).append(cl)
    gates = {}
    for y, cls in occ.items():
        wide = [cl for cl in cls if y in cl]
        if len(wide) != 1 or len(wide[0]) < 2:
            continue
        inputs = [-lit for lit in wide[0] if lit != y]
        links = [set(cl) for cl in cls if -y in cl]
        if len(links) != len(inputs) or len(cls) != len(inputs) + 1:
            continue
        if all(len(cl) == 2 for cl in links):
            if {frozenset(cl) for cl in links} == {frozenset((-y, l)) for l in inputs}:
                gates[y] = (inputs, False)
            continue
        order = []      # inputs from the last one back
        for cl in sorted(links, key=len):
            extra = cl - {-y} - {-l for l in order}
            if len(cl) != len(order) + 2 or len(extra) != 1:
                break
            order.append(extra.pop())
        else:
            if sorted(order) == sorted(inputs):
                gates[y] = (order[::-1], True)
    return {y: g for y, g in gates.items() if not any(abs(l) in gates for l in g[0])}


def compile_formula(f: CnfFormula, config: Optional[CompileConfig] = None) -> NnfCircuit:
    """Compile a CNF formula into a decision-DNNF over f's universe.

    The circuit's model set equals the satisfying assignments of f;
    identical input and config always yield the identical circuit.
    Search node by search node: the decided literal is propagated, the
    residual clauses split into connected components ordered by their
    first clause, and each component is branched on its lowest-ranked
    variable (negative literal first) unless a component with the same
    residual clause set was compiled before.  A search node that fails
    yields no node, not even a false one.  Nodes made below a search node
    that fails later stay, since the cache may reach them again; those the
    root never reaches are dropped at the end, keeping the order of the
    rest, and the circuit is not copied otherwise.
    """
    cfg = config or CompileConfig()
    variables = f.variables
    n = len(variables)

    base = variables
    if cfg.order_hint is not None:
        base = tuple(cfg.order_hint)
        if len(base) != n or set(base) != set(variables):
            raise ValueError("order hint must be a permutation of the formula variables")
    # bit i stands for base[i]; clauses keep the formula's variable numbers
    rank = {f.variable_number(v): i for i, v in enumerate(base)}

    canonical = tuple(sorted(set(f.numbered)))

    def lit_masks(lits):
        p = q = 0
        for lit in lits:
            if lit > 0:
                p |= 1 << rank[lit]
            else:
                q |= 1 << rank[-lit]
        return p, q

    # gates, indexed by their output bit
    found = _find_gates(canonical)
    gate_bits = 0
    in_pos: dict[int, int] = {}         # output bit -> inputs read positively
    in_neg: dict[int, int] = {}         # output bit -> inputs read negatively
    # output bit -> (wide clause, ((input bit, input read positively, link), ...)),
    # a chained gate's links in input order
    gate_clauses: dict[int, tuple] = {}
    chained_bits = 0
    feeds_pos = [0] * n                 # variable bit -> gates reading it positively
    feeds_neg = [0] * n
    gate_set = set()
    for y, (inputs, chained) in found.items():
        g = rank[y]
        gate_bits |= 1 << g
        if chained:
            chained_bits |= 1 << g
        in_pos[g], in_neg[g] = lit_masks(inputs)
        for lit in inputs:
            if lit > 0:
                feeds_pos[rank[lit]] |= 1 << g
            else:
                feeds_neg[rank[-lit]] |= 1 << g
        wide = tuple(sorted([y] + [-l for l in inputs], key=abs))
        links = tuple((rank[abs(l)], l > 0,
                       tuple(sorted([-y, l] + ([-m for m in inputs[j + 1:]] if chained else []),
                                    key=abs)))
                      for j, l in enumerate(inputs))
        gate_clauses[g] = (wide, links)
        gate_set.add(wide)
        gate_set.update(link for _, _, link in links)
    basic_bits = gate_bits & ~chained_bits
    feeds = [a | b for a, b in zip(feeds_pos, feeds_neg)]
    is_gate = [bool(gate_bits >> i & 1) for i in range(n)]
    everything = (1 << n) - 1
    plain_bits = everything & ~gate_bits
    # every other clause
    plain = [cl for cl in canonical if cl not in gate_set]
    plain_pos, plain_neg = [], []
    falsified_by_1 = [[] for _ in range(n)]   # bit -> clauses with its negative literal
    falsified_by_0 = [[] for _ in range(n)]   # bit -> clauses with its positive literal
    for ci, cl in enumerate(plain):
        p, q = lit_masks(cl)
        plain_pos.append(p)
        plain_neg.append(q)
        for lit in cl:
            if lit > 0:
                falsified_by_0[rank[lit]].append(ci)
            else:
                falsified_by_1[rank[-lit]].append(ci)
    # bit -> what setting it to 0 or to 1 touches: (gates it holds for,
    # gates it fails, plain clauses it falsifies)
    touch_0 = [(feeds_neg[b], feeds_pos[b], falsified_by_0[b]) for b in range(n)]
    touch_1 = [(feeds_pos[b], feeds_neg[b], falsified_by_1[b]) for b in range(n)]

    kinds: list = []
    kids: list = []
    pos: list = []
    neg: list = []
    lit_ids: dict = {}
    unmade = [everything, everything]   # literals without a node: negative, positive
    number = [f.variable_number(v) for v in base]
    bits = list(range(n))   # Or markers share these ints rather than one each
    budget = cfg.cache_budget
    cache: dict = {}
    overflow = False
    wasted = False      # some node may have become unreachable

    def first_clause(members, gates, live, cls, pfree, ones):
        """The component's first residual clause in its parent's sorted order.

        members holds the component's variables, ones the variables set to 1.
        """
        def cut(cl):
            return tuple(l for l in cl if pfree >> rank[abs(l)] & 1)
        best = None
        for g in mask_bits(gates):
            wide, links = gate_clauses[g]
            if not live >> g & 1:
                cands = [cut(wide)]     # output 0: the wide clause is left
            elif not chained_bits >> g & 1:
                cands = [cut(wide)] + [link for v, _, link in links if members >> v & 1]
            else:
                # the links of the free inputs after the last failed input,
                # then that input's link, or the wide clause if none failed
                cands = []
                for v, positive, link in reversed(links):
                    if members >> v & 1:
                        cands.append(cut(link))
                    elif (ones >> v & 1) != positive:
                        cands.append(cut(link))
                        break
                else:
                    cands.append(cut(wide))
            for cl in cands:
                if best is None or cl < best:
                    best = cl
        for ci in cls:
            cl = cut(plain[ci])
            if best is None or cl < best:
                best = cl
        return best

    def settle(v, val, comp_vars, zero_c, cls, state, pfree):
        """Assert bit v = val on a component (v < 0: the root) and split the rest.

        The root reads every plain clause through the propagation loop's
        clause rule, and a gate decided 0 enters its zero-gate rule.  state
        is (variables set to 1, set to 0, gates whose output is 0 while none
        of their inputs is false yet, chained gates with a failed input);
        each propagated literal adds the chained gates it fails to the last
        mask.  pfree holds the variables free when the component was split
        off.  The residual step walks the links of the undecided gates in
        that mask alone, to find their cuts; every other undecided gate
        touches the free variables that feed it.  Returns _FAIL on
        conflict, the search node's circuit node when no component is left,
        and otherwise what expand needs to compile the components.
        """
        a1, a0, zero, failed = state
        start = len(kinds)
        if v < 0:
            queue = [(0, 0, cls)]   # the root: every plain clause
        elif not is_gate[v]:
            if val:
                a1 |= 1 << v
                queue = [touch_1[v]]
            else:
                a0 |= 1 << v
                queue = [touch_0[v]]
        elif val:
            # output 1: every input holds
            if in_pos[v] & a0 or in_neg[v] & a1:
                return _FAIL
            a1 |= 1 << v
            free = ~(a1 | a0)
            p, q = in_pos[v] & free, in_neg[v] & free
            a1 |= p
            a0 |= q
            queue = [touch_1[i] for i in mask_bits(p)] + [touch_0[i] for i in mask_bits(q)]
        else:
            a0 |= 1 << v
            queue = []
            if not (in_pos[v] & a0 or in_neg[v] & a1):
                zero |= 1 << v      # output 0: the zero-gate rule takes it
                queue = [(1 << v, 0, ())]

        # unit propagation: an entry is what a literal set here touches, or
        # the root's plain clauses, or a gate decided 0; outputs whose inputs
        # all hold are set to 1 below, once the free inputs are known
        i = 0
        while i < len(queue):
            up, down, hit = queue[i]
            i += 1
            if down:
                dead = down & basic_bits
                # A guard that cannot fire.  No plain clause names a gate's
                # output, so a plain gate's output enters a1 in two ways
                # only: a decision on it, which first refuses a false input
                # and then sets every free input true, or the `done` step,
                # once every input holds.  Inputs are plain variables, and
                # every step assigns a plain variable only while it is free,
                # so a true input is never assigned again, and no input of a
                # gate in a1 can fail.
                if dead & a1:
                    return _FAIL
                a0 |= dead
                if zero:
                    zero &= ~down
            if chained_bits and (up | down) & chained_bits:
                failed |= down & chained_bits
                # a chained gate's output is 0 once its last input that
                # does not hold has failed
                for g in mask_bits((up | down) & chained_bits & ~(a1 | a0)):
                    for b, positive, _ in reversed(gate_clauses[g][1]):
                        if not (a1 | a0) >> b & 1:
                            break
                        if (a1 >> b & 1) != positive:
                            a0 |= 1 << g
                            break
            if up & zero:
                for g in mask_bits(up & zero):
                    # output 0: the last input not true must fail
                    rest = (in_pos[g] & ~a1) | (in_neg[g] & ~a0)
                    if not rest:
                        return _FAIL
                    if not rest & (rest - 1) and not rest & (a1 | a0):
                        if in_pos[g] & rest:
                            a0 |= rest
                            queue.append(touch_0[rest.bit_length() - 1])
                        else:
                            a1 |= rest
                            queue.append(touch_1[rest.bit_length() - 1])
            for ci in hit:
                p, q = plain_pos[ci], plain_neg[ci]
                if p & a1 or q & a0:
                    continue
                free = (p | q) & ~(a1 | a0)
                if not free:
                    return _FAIL
                if not free & (free - 1):
                    if free & p:
                        a1 |= free
                        queue.append(touch_1[free.bit_length() - 1])
                    else:
                        a0 |= free
                        queue.append(touch_0[free.bit_length() - 1])
        lits1, lits0 = a1 ^ state[0], a0 ^ state[1]
        free = pfree ^ (lits1 | lits0)

        # residual structure inside the component
        left = comp_vars & free
        undecided = left & gate_bits
        zero_c = (zero_c | 1 << v) & zero if zero else 0
        active = undecided | zero_c
        chain_touch = {}    # plain bit -> free chained gates whose residual has it
        cut = {}            # chained gate with a failed input -> inputs left after it
        if undecided & failed:
            # a chained gate with no failed input reads like a plain one
            active ^= undecided & failed
            for g in mask_bits(undecided & failed):
                left_after = 0
                for b, positive, _ in reversed(gate_clauses[g][1]):
                    if free >> b & 1:
                        left_after |= 1 << b
                    elif (a1 >> b & 1) != positive:
                        cut[g] = left_after
                        break
                for b in mask_bits(left_after):
                    chain_touch[b] = chain_touch.get(b, 0) | 1 << g
        if cls:
            cls = [ci for ci in cls if not (plain_pos[ci] & a1 or plain_neg[ci] & a0)]
        present = []        # (bit, gates it touches) per plain variable left
        live = 0            # gates with a free input
        m = left & plain_bits
        while m:
            low = m & -m
            m ^= low
            t = feeds[low.bit_length() - 1] & active
            if chain_touch:
                t |= chain_touch.get(low.bit_length() - 1, 0)
            if t or cls:
                present.append((low, t))
                live |= t
        if zero_c:
            live &= undecided
        if live != undecided:
            # outputs whose inputs all hold
            done = undecided ^ live
            a1 |= done
            lits1 |= done
            free ^= done
        comps = []
        while present:
            members, gates = present[0]
            others = present[1:]
            mine = []
            grow = bool(others) or bool(cls)
            while grow:
                grow = False
                keep = []
                for b, t in others:
                    if t & gates:
                        members |= b
                        gates |= t
                        grow = True
                    else:
                        keep.append((b, t))
                others = keep
                if cls:
                    keep = []
                    for ci in cls:
                        if (plain_pos[ci] | plain_neg[ci]) & members:
                            mine.append(ci)
                            members |= (plain_pos[ci] | plain_neg[ci]) & free
                            grow = True
                        else:
                            keep.append(ci)
                    cls = keep
                    if grow:
                        keep = []
                        for b, t in others:
                            if b & members:
                                gates |= t
                            else:
                                keep.append((b, t))
                        others = keep
            if gates or mine:
                mine.sort()
                # a chained gate with a failed input keeps the link of that
                # input, which its variable set alone does not show
                cuts = [(in_neg[g] & r, (in_pos[g] & r) | 1 << g)
                        for g, r in cut.items() if gates >> g & 1] if cut else ()
                comps.append((members | (gates & live), gates & zero_c, mine, gates, cuts))
            present = others
        if len(comps) > 1:
            comps.sort(key=lambda cp: first_clause(cp[0], cp[3], live, cp[2], pfree, a1))

        # literal nodes first, in variable-number order, as record_kids lists them
        if lits1 & unmade[1] or lits0 & unmade[0]:
            fresh1, fresh0 = lits1 & unmade[1], lits0 & unmade[0]
            order = sorted([(number[i], i, 1) for i in mask_bits(fresh1)]
                           + [(number[i], i, 0) for i in mask_bits(fresh0)])
            for _, i, sign in order:
                kinds.append(LIT)
                kids.append(())
                pos.append(1 << i if sign else 0)
                neg.append(0 if sign else 1 << i)
                lit_ids[(i, sign)] = len(kinds) - 1
            unmade[1] ^= fresh1
            unmade[0] ^= fresh0

        if not comps:
            return assemble(lits1, lits0, ())
        return comps, lits1, lits0, (a1, a0, zero, failed), free, start

    def assemble(lits1, lits0, parts) -> int:
        """The node of a search node: its literal block and component nodes
        (an empty And for an empty one, which only the root can be)."""
        lits = lits1 | lits0
        if not parts and lits and not lits & (lits - 1):
            return lit_ids[(lits.bit_length() - 1, 1 if lits1 else 0)]
        if not lits and len(parts) == 1:
            return parts[0]
        kinds.append(AND)
        kids.append(tuple(parts))
        pos.append(lits1)
        neg.append(lits0)
        return len(kinds) - 1

    def expand(comps, lits1, lits0, state, free, start):
        """Compile a search node's components, then the node itself.

        A generator: it yields the arguments of each settle call it needs,
        receives that search node's circuit node, and returns its own.
        """
        nonlocal wasted, overflow
        parts = []
        for comp_v, comp_z, comp_cls, _, cuts in comps:
            if comp_z or comp_cls or cuts:
                extra = {(in_neg[g] & free, in_pos[g] & free) for g in mask_bits(comp_z)}
                extra.update((plain_pos[ci] & free, plain_neg[ci] & free) for ci in comp_cls)
                extra.update(cuts)
                key = (comp_v, frozenset(extra))
            else:
                key = comp_v
            nid = cache.get(key)
            if nid is None:
                # branch on the component's first variable, negative literal first
                d = (comp_v & -comp_v).bit_length() - 1
                no = yield d, 0, comp_v, comp_z, comp_cls, state, free
                yes = yield d, 1, comp_v, comp_z, comp_cls, state, free
                if no == _FAIL:
                    nid = yes
                elif yes == _FAIL:
                    nid = no
                else:
                    kinds.append(OR)
                    kids.append((no, yes))
                    pos.append(bits[d])
                    neg.append(0)
                    nid = len(kinds) - 1
                if len(cache) < budget:
                    cache[key] = nid
                elif not overflow:
                    overflow = True
                    log.warning("component cache budget (%d) exhausted; "
                                "continuing without reuse", budget)
            if nid == _FAIL:
                if len(kinds) > start:
                    wasted = True
                return _FAIL
            parts.append(nid)
        return assemble(lits1, lits0, parts)

    # search nodes with components run as generators that yield the search
    # nodes they need, so the search depth costs heap objects rather than
    # interpreter stack
    stack = []
    request = (-1, 0, everything, 0, list(range(len(plain))), (0, 0, 0, 0), everything)
    while request is not None:
        root = settle(*request)
        if type(root) is tuple:
            stack.append(expand(*root))
            root = None
        request = None
        while stack:
            try:
                request = stack[-1].send(root)
                break
            except StopIteration as stop:
                stack.pop()
                root = stop.value
    if root == _FAIL:
        return NnfCircuit(variables, base, ([OR], [()], [None], [0]), 0)
    columns = (kinds, kids, pos, neg)
    if wasted:
        columns, root = _compact(columns, root)
    return NnfCircuit(variables, base, columns, root)


def order_from_beta(h: Hypergraph) -> tuple[CnfVariable, ...]:
    """Branch order for beta-acyclic instances: vertex variables in reverse
    elimination order, each followed by the edge variables whose last
    vertex it is."""
    order = beta_elimination_order(h)
    if order is None:
        raise ValueError("hypergraph is not beta-acyclic")
    return _branch_order(h, order)


def _branch_order(h: Hypergraph, order: Sequence) -> tuple[CnfVariable, ...]:
    # order_from_beta's order, from an elimination order already at hand
    pos = {v: i for i, v in enumerate(order)}
    by_last: dict = {}
    for i, e in enumerate(h.edges):
        last = max(e, key=pos.__getitem__)
        by_last.setdefault(last, []).append(i)
    out = []
    for v in reversed(order):
        out.append(CnfVariable("x", v))
        out.extend(CnfVariable("y", i) for i in by_last.get(v, []))
    return tuple(out)


def order_from_decomposition(td: TreeDecomposition) -> tuple:
    """Variable order from a root-to-leaf sweep of an incidence-graph
    decomposition: variables in order of first bag appearance, each bag's
    new ones by repr."""
    news = td.walk()
    elements = set().union(*news)
    if sum(map(len, news)) != len(elements):
        raise ValueError("decomposition violates connectedness")
    for el in elements:
        if not (isinstance(el, tuple) and len(el) == 2 and el[0] in ("v", "c")):
            raise ValueError("bags must contain incidence-graph nodes")
    return tuple(el[1] for new in news
                 for el in sorted([el for el in new if el[0] == "v"], key=repr))


def encode_instance(inst: LiteralInstance,
                    encoding: str = "auto") -> tuple[CnfFormula, tuple]:
    """Encode per the requested mode and pick a branch order hint.

    auto uses the ordered encoding on beta-acyclic instances and the basic
    encoding otherwise; ordered uses the beta order when there is one and
    declaration order otherwise.  The hint is the beta order's branch
    order when the encoding followed one, and else a min-fill order of the
    formula's incidence graph, at every size.  The beta order is computed
    at most once, and not at all for the basic encoding.
    """
    if encoding not in ("auto", "basic", "ordered"):
        raise ValueError(f"unknown encoding {encoding!r}: use auto, basic or ordered")
    h = inst.hypergraph
    beta = None if encoding == "basic" else beta_elimination_order(h)
    if beta is not None:
        return encode_ordered(inst, beta), _branch_order(h, beta)
    formula = encode_ordered(inst, h.vertices) if encoding == "ordered" else encode_basic(inst)
    g = formula_incidence_graph(formula)
    return formula, order_from_decomposition(minfill_decomposition(g))


def compile_instance(inst: LiteralInstance, encoding: str = "auto") -> NnfCircuit:
    """The pipeline's front half: encode_instance, then compile_formula
    with the chosen branch order."""
    formula, hint = encode_instance(inst, encoding)
    return compile_formula(formula, CompileConfig(order_hint=hint))
