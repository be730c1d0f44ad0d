"""Reference tree-decomposition checks: a breadth-first tree test, a count
of bags minus tree edges per element, and a depth-first order sweep with
a dict of vertex nodes not yet emitted.

Frozen copies of nnfopt's TreeDecomposition._is_tree, disconnected and
validate, and of compiler.order_from_decomposition, before all four were
built on one TreeDecomposition.walk.  The library must give the same
orders, the same disconnected sets and the same ValueError messages on
every decomposition; keep this copy as it is.
"""

from collections import deque

from nnfopt import Graph, TreeDecomposition


def is_tree_reference(td: TreeDecomposition) -> bool:
    if not td.bags:
        return False
    n_edges = sum(len(s) for s in td.tree.values()) // 2
    if n_edges != len(td.bags) - 1:
        return False
    seen = set()
    queue = deque([next(iter(td.bags))])
    while queue:
        b = queue.popleft()
        if b in seen:
            continue
        seen.add(b)
        queue.extend(td.tree[b] - seen)
    return len(seen) == len(td.bags)


def disconnected_reference(td: TreeDecomposition) -> set:
    # requires the bag graph to be a tree
    surplus: dict = {}      # bags holding v minus tree edges within them
    for s in td.bags.values():
        for v in s:
            surplus[v] = surplus.get(v, 0) + 1
    for a, near in td.tree.items():
        sa = td.bags[a]
        for b in near:
            if a < b:
                for v in sa & td.bags[b]:
                    surplus[v] -= 1
    return {v for v, k in surplus.items() if k != 1}


def validate_reference(td: TreeDecomposition, graph: Graph) -> None:
    if not is_tree_reference(td):
        raise ValueError("bag graph is not a tree")
    holders: dict = {}      # node -> ids of the bags that hold it
    for a, s in td.bags.items():
        for v in s:
            holders.setdefault(v, set()).add(a)
    missing = set(graph.nodes) - holders.keys()
    if missing:
        raise ValueError(f"nodes never covered: {sorted(missing)[:5]}")
    for u, v in graph.edges():
        if holders[u].isdisjoint(holders[v]):
            raise ValueError(f"edge ({u}, {v}) not covered by any bag")
    broken = disconnected_reference(td)
    for v in graph.nodes:
        if v in broken:
            raise ValueError(f"bags containing {v} are not connected")


def order_from_decomposition_reference(td: TreeDecomposition) -> tuple:
    if not is_tree_reference(td):
        raise ValueError("bag graph is not a tree")
    if disconnected_reference(td):
        raise ValueError("decomposition violates connectedness")
    key = {}    # vertex node not yet emitted -> its repr, which orders each bag
    for el in {x for bag in td.bags.values() for x in bag}:
        if not (isinstance(el, tuple) and len(el) == 2 and el[0] in ("v", "c")):
            raise ValueError("bags must contain incidence-graph nodes")
        if el[0] == "v":
            key[el] = repr(el)
    root = min(td.bags)
    seen_bags = {root}
    stack = [root]
    out = []
    while stack:
        b = stack.pop()
        for el in sorted(key.keys() & td.bags[b], key=key.__getitem__):
            del key[el]
            out.append(el[1])
        nxt = sorted(td.tree[b] - seen_bags, reverse=True)
        seen_bags.update(nxt)
        stack.extend(nxt)
    return tuple(out)
