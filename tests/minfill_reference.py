"""Reference min-fill elimination: a linear scan for the next node and a
full recount of each dirty node's fill.

A frozen copy of nnfopt's original minfill_decomposition.  The library's
incremental version must return the same bags and tree on every graph;
keep this copy as it is.
"""

from nnfopt import Graph, TreeDecomposition


def minfill_decomposition_reference(g: Graph) -> TreeDecomposition:
    if g.node_count == 0:
        return TreeDecomposition({0: frozenset()}, [])
    names = sorted(g.nodes)
    index = {n: i for i, n in enumerate(names)}
    adj = [set(index[m] for m in g.neighbors(n)) for n in names]

    def fill_of(u: int) -> int:
        nb = adj[u]
        k = len(nb)
        if k < 2:
            return 0
        present = sum(len(adj[w] & nb) for w in nb) // 2
        return k * (k - 1) // 2 - present

    fill = {u: fill_of(u) for u in range(len(names))}
    alive = set(range(len(names)))
    order: list[int] = []
    cliques: list[tuple] = []
    while alive:
        best = min(alive, key=lambda u: (fill[u], u))
        nb = sorted(adj[best])
        dirty = set(nb)
        for ai, a in enumerate(nb):
            for b in nb[ai + 1:]:
                if b not in adj[a]:
                    dirty |= adj[a] & adj[b]
                    adj[a].add(b)
                    adj[b].add(a)
        for u in nb:
            adj[u].discard(best)
        alive.discard(best)
        del fill[best]
        for u in dirty:
            if u in alive:
                fill[u] = fill_of(u)
        order.append(best)
        cliques.append(tuple(nb))

    # Bags in reverse elimination order; attach each to the bag of the
    # first-eliminated member of its clique, whose bag must contain it.
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    bags = {i: frozenset({names[order[i]], *(names[u] for u in cliques[i])})
            for i in range(n)}
    edges_t = []
    for i in range(n):
        if cliques[i]:
            edges_t.append((i, min(pos[u] for u in cliques[i])))
        elif i + 1 < n:
            edges_t.append((i, i + 1))
    return TreeDecomposition(bags, edges_t)
