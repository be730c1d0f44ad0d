"""Hypergraphs, beta-acyclicity machinery and tree decompositions.

Vertices can be any hashable, sortable values (ints in practice, CNF
variables when a formula is viewed as a hypergraph).  Edges form a
sequence, so duplicate edges are allowed and edge identity is positional.
Nothing here knows the CNF encodings; cnf builds on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional, Sequence


class Graph:
    """Undirected graph with deterministic iteration order."""

    def __init__(self, nodes: Iterable = ()) -> None:
        self._adj: dict = {}
        for n in nodes:
            self.add_node(n)

    def add_node(self, n) -> None:
        if n not in self._adj:
            self._adj[n] = set()

    def add_edge(self, u, v) -> None:
        if u == v:
            raise ValueError("self-loops are not supported")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    @classmethod
    def bipartite(cls, left: Sequence, right: Iterable) -> "Graph":
        """The graph with nodes ``left`` and then the nodes of ``right``, a
        sequence of (node, its neighbours in left) pairs: what add_node on
        each left node, then add_node and add_edge per pair, would build.
        Raises ValueError unless the sides are distinct nodes and every
        neighbour is in left."""
        g = cls()
        adj = g._adj
        adj.update((u, set()) for u in left)
        count = len(left)
        rest = {}
        for node, near in right:
            rest[node] = near = set(near)
            count += 1
            try:
                for u in near:
                    adj[u].add(node)
            except KeyError:
                raise ValueError(f"{node!r} has a neighbour outside left") from None
        adj.update(rest)
        if len(adj) != count:
            raise ValueError("bipartite sides must be distinct nodes")
        return g

    def neighbors(self, n) -> tuple:
        return tuple(sorted(self._adj[n]))

    def degree(self, n) -> int:
        return len(self._adj[n])

    @property
    def nodes(self) -> tuple:
        return tuple(self._adj)

    def edges(self) -> list:
        out = []
        for u in self._adj:
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2


class Hypergraph:
    """A (multi)hypergraph: ordered vertices plus a sequence of edges."""

    def __init__(self, vertices: Iterable, edges: Iterable[Iterable] = ()) -> None:
        self.vertices = tuple(vertices)
        self._vpos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vpos) != len(self.vertices):
            raise ValueError("duplicate vertices")
        vset = self._vpos.keys()
        frozen = []
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise ValueError("empty edge rejected")
            if not fe <= vset:
                raise ValueError(f"edge {sorted(fe)} mentions undeclared vertices")
            frozen.append(fe)
        self.edges = tuple(frozen)

    def __repr__(self) -> str:
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def vertex_position(self, v) -> int:
        return self._vpos[v]

    def edge_vertices(self, i: int) -> tuple:
        """Vertices of edge i in declared vertex order."""
        return tuple(sorted(self.edges[i], key=self._vpos.__getitem__))


@dataclass(frozen=True)
class LiteralInstance:
    """A binary polynomial over literals: hypergraph, polarities, profits.

    ``sigma[i][v]`` is 1 when edge i uses the plain variable for v and 0
    when it uses the complement 1-x(v).  A plain instance has every
    polarity equal to 1.

    The instance's variable layout (cnf.instance_layout: its CNF variables
    and per-edge literal masks) is computed on first use and kept on the
    instance, outside the dataclass fields, so equality, hashing and repr
    do not see it.  sigma and profit must not be mutated afterwards.
    """

    hypergraph: Hypergraph
    sigma: tuple
    profit: tuple

    def __post_init__(self):
        h = self.hypergraph
        if len(self.sigma) != len(h.edges) or len(self.profit) != len(h.edges):
            raise ValueError("sigma and profit must have one entry per edge")
        for i, e in enumerate(h.edges):
            if set(self.sigma[i]) != set(e):
                raise ValueError(f"sigma of edge {i} must be defined exactly on its vertices")
            if any(b not in (0, 1) for b in self.sigma[i].values()):
                raise ValueError("polarities must be 0/1 bits")

    @staticmethod
    def plain(hypergraph: Hypergraph, profit: Sequence) -> "LiteralInstance":
        """Instance with all-positive polarities (an ordinary polynomial)."""
        sigma = tuple({v: 1 for v in e} for e in hypergraph.edges)
        return LiteralInstance(hypergraph, sigma, tuple(Fraction(p) for p in profit))

    def value_at(self, point: Mapping) -> Fraction:
        """Evaluate the polynomial at a 0/1 point, directly from the terms."""
        total = Fraction(0)
        for i, e in enumerate(self.hypergraph.edges):
            term = 1
            for v in e:
                bit = point[v]
                if (bit if self.sigma[i][v] == 1 else 1 - bit) == 0:
                    term = 0
                    break
            if term:
                total += self.profit[i]
        return total


class TreeDecomposition:
    """A tree over bag ids with a vertex set per bag."""

    def __init__(self, bags: Mapping[int, Iterable], tree_edges: Iterable[tuple]) -> None:
        self.bags = {b: frozenset(s) for b, s in bags.items()}
        self.tree: dict[int, set] = {b: set() for b in self.bags}
        for a, b in tree_edges:
            if a not in self.bags or b not in self.bags:
                raise ValueError("tree edge mentions unknown bag")
            if a == b:
                raise ValueError("tree edge from a bag to itself")
            self.tree[a].add(b)
            self.tree[b].add(a)

    @property
    def width(self) -> int:
        return max((len(s) for s in self.bags.values()), default=0) - 1

    def walk(self) -> list:
        """Per bag, in the order of a depth-first pass from the least bag id
        that takes neighbours in ascending order: the elements the bag
        holds and its parent bag does not.

        An element's bags form a connected subtree exactly when it is new
        in one bag only.  Raises ValueError unless the bag graph is a tree.
        """
        bags, tree = self.bags, self.tree
        if not bags or sum(map(len, tree.values())) != 2 * (len(bags) - 1):
            raise ValueError("bag graph is not a tree")
        root = min(bags)
        seen = {root}
        stack = [(root, frozenset())]
        out = []
        while stack:
            b, above = stack.pop()
            bag = bags[b]
            out.append(bag - above)
            nxt = sorted(tree[b] - seen, reverse=True)
            seen.update(nxt)
            stack.extend((c, bag) for c in nxt)
        if len(seen) != len(bags):
            raise ValueError("bag graph is not a tree")
        return out

    def disconnected(self) -> set:
        """Elements whose bags do not induce a connected subtree: those new
        in more than one bag of walk()."""
        return _repeated(self.walk())

    def validate(self, graph: Graph) -> None:
        """Raise ValueError unless this is a valid decomposition of graph."""
        news = self.walk()
        holders: dict = {}      # node -> ids of the bags that hold it
        for a, s in self.bags.items():
            for v in s:
                holders.setdefault(v, set()).add(a)
        missing = set(graph.nodes) - holders.keys()
        if missing:
            raise ValueError(f"nodes never covered: {sorted(missing)[:5]}")
        for u, v in graph.edges():
            if holders[u].isdisjoint(holders[v]):
                raise ValueError(f"edge ({u}, {v}) not covered by any bag")
        broken = _repeated(news)
        for v in graph.nodes:
            if v in broken:
                raise ValueError(f"bags containing {v} are not connected")


def _repeated(sets) -> set:
    # the elements of more than one of sets
    seen, twice = set(), set()
    for s in sets:
        twice |= seen & s
        seen |= s
    return twice


# ---------------------------------------------------------------------------
# beta-acyclicity


def _is_nest_point(v, edges: Sequence[frozenset]) -> bool:
    incident = [e for e in edges if v in e]
    incident.sort(key=len)
    for a, b in zip(incident, incident[1:]):
        if not a <= b:
            return False
    return True


def _eliminate(vertices: list, edges: Sequence[frozenset], greedy: bool) -> Optional[tuple]:
    """Nest-point elimination, one vertex of the list per round: the first
    nest point of the remaining edges when greedy, else the list's first
    vertex, which must be one.  Returns the vertices in elimination order,
    or None when a round finds no nest point."""
    order = []
    while vertices:
        candidates = vertices if greedy else vertices[:1]
        pick = next((v for v in candidates if _is_nest_point(v, edges)), None)
        if pick is None:
            return None
        order.append(pick)
        vertices.remove(pick)
        shrunk = (e - {pick} if pick in e else e for e in edges)
        edges = [e for e in shrunk if e]
    return tuple(order)


def beta_elimination_order(h: Hypergraph) -> Optional[tuple]:
    """Greedy nest-point elimination, lowest vertex first on ties.

    Returns an order (v1, ..., vn) where each vi is a nest point of the
    hypergraph restricted to the not-yet-eliminated vertices, or None when
    no such order exists.  Eliminating any available nest point is safe,
    so the greedy search is complete.
    """
    return _eliminate(sorted(h.vertices), h.edges, greedy=True)


def is_beta_acyclic(h: Hypergraph) -> bool:
    return beta_elimination_order(h) is not None


def is_valid_elimination_order(h: Hypergraph, order: Sequence) -> bool:
    """Check a proposed beta-elimination order vertex by vertex."""
    if sorted(order, key=repr) != sorted(h.vertices, key=repr):
        return False
    return _eliminate(list(order), h.edges, greedy=False) is not None


# ---------------------------------------------------------------------------
# incidence graphs

# Incidence-graph nodes are tagged tuples so vertex and edge nodes never
# collide: ('v', vertex) and ('e', edge position).


def vertex_node(v) -> tuple:
    return ("v", v)


def edge_node(i: int) -> tuple:
    return ("e", i)


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite graph between vertices and edge occurrences."""
    return Graph.bipartite([vertex_node(v) for v in h.vertices],
                           ((edge_node(i), [vertex_node(v) for v in h.edge_vertices(i)])
                            for i in range(len(h.edges))))


# ---------------------------------------------------------------------------
# cycle hypergraphs


def cycle_decomposition(h: Hypergraph) -> Optional[TreeDecomposition]:
    """Width-2 decomposition of the incidence graph of a cycle hypergraph.

    A cycle hypergraph has edges e0..e{n-1} (n >= 3) where ei and ej meet
    exactly when j = i+1 mod n.  For n = 3 a vertex shared by all three
    edges is additionally rejected: with such a vertex the incidence graph
    has a K4 minor, so no width-2 decomposition exists at all.
    Returns None when h is not (detectably) a cycle hypergraph.
    """
    m = len(h.edges)
    if m < 3:
        return None
    inter = Graph(range(m))
    for i in range(m):
        for j in range(i + 1, m):
            if h.edges[i] & h.edges[j]:
                inter.add_edge(i, j)
    if any(inter.degree(i) != 2 for i in range(m)):
        return None
    # 2-regular and connected means a single cycle; walk it.
    cyc = [0]
    prev = None
    while True:
        nxts = [x for x in inter.neighbors(cyc[-1]) if x != prev]
        prev = cyc[-1]
        cyc.append(min(nxts))
        if cyc[-1] == 0:
            break
    cyc.pop()
    if len(cyc) != m:
        return None
    if m == 3 and (h.edges[0] & h.edges[1] & h.edges[2]):
        return None

    e = [edge_node(i) for i in cyc]
    ordered = [h.edges[i] for i in cyc]
    bags: dict[int, frozenset] = {}
    edges_t: list[tuple] = []
    bags[0] = frozenset({e[0], e[1]})
    for i in range(1, m - 1):
        bags[i] = frozenset({e[0], e[i], e[i + 1]})
        edges_t.append((i - 1, i))
    bags[m - 1] = frozenset({e[0], e[m - 1]})
    edges_t.append((m - 2, m - 1))
    nxt = m

    def attach(to_bag: int, content: frozenset):
        nonlocal nxt
        bags[nxt] = content
        edges_t.append((to_bag, nxt))
        nxt += 1

    for i in range(m):
        j = (i + 1) % m
        prv = (i - 1) % m
        for v in sorted(ordered[i] & ordered[j], key=h.vertex_position):
            attach(i, frozenset({e[i], e[j], vertex_node(v)}))
        for v in sorted(ordered[i] - (ordered[prv] | ordered[j]), key=h.vertex_position):
            attach(i, frozenset({e[i], vertex_node(v)}))
    covered = set()
    for i in range(m):
        covered |= h.edges[i]
    for v in h.vertices:
        if v not in covered:
            attach(0, frozenset({vertex_node(v)}))
    return TreeDecomposition(bags, edges_t)


# ---------------------------------------------------------------------------
# min-fill tree decompositions


def minfill_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from min-fill elimination, lowest node on ties.

    The width is only an upper bound on the treewidth of g.  Nodes are
    relabeled to integers in sorted order, and the node eliminated next
    is the live one with the least (fill, index).  It comes off a binary
    heap of (fill, index) entries that holds only the live nodes whose
    fill is at most a bound, 2*min + 1 over the live fills when the heap
    was built: an entry is pushed whenever a fill changes to a value
    within the bound, and a popped entry whose node is dead or whose fill
    is no longer current is skipped.  A heap that runs dry is rebuilt from
    one scan of the live fills, so the bound more than doubles each time,
    and hubs far above the least fill are not pushed at all.  The loop
    stops after the last elimination, leaving stale entries unpopped.

    Fill stays exact without recounting a neighbourhood.  Each node keeps
    ``inner``, the number of edges among its neighbours, so its fill is
    deg*(deg-1)/2 - inner.  Eliminating v first adds the missing edges
    among its neighbours N; a new edge (a, b) adds one to ``inner`` of
    every common neighbour of a and b, and adds their number to ``inner``
    of a and of b.  Removing v then takes |N| - 1 from ``inner`` of each
    node of N, since N is a clique by then.  Only N and those common
    neighbours can change fill.
    """
    if g.node_count == 0:
        return TreeDecomposition({0: frozenset()}, [])
    names = sorted(g.nodes)
    index = {n: i for i, n in enumerate(names)}
    adj = [{index[m] for m in g._adj[n]} for n in names]
    inner = [sum(len(adj[w] & nb) for w in nb) // 2 for nb in adj]
    fill = [len(nb) * (len(nb) - 1) // 2 - e for nb, e in zip(adj, inner)]
    alive = [True] * len(names)
    heap: list = []
    order: list[int] = []
    cliques: list[set] = []
    while len(order) < len(names):
        if not heap:
            bound = 2 * min(f for f, a in zip(fill, alive) if a) + 1
            heap = [(f, u) for u, f in enumerate(fill) if f <= bound and alive[u]]
            heapify(heap)
        f, v = heappop(heap)
        if not alive[v] or f != fill[v]:
            continue
        nb = adj[v]
        touched = set(nb)
        missing = f
        for a in nb:
            if not missing:
                break
            for b in nb - adj[a]:
                if b != a:
                    common = adj[a] & adj[b]
                    inner[a] += len(common)
                    inner[b] += len(common)
                    for w in common:
                        inner[w] += 1
                    touched |= common
                    adj[a].add(b)
                    adj[b].add(a)
                    missing -= 1
        alive[v] = False
        shared = len(nb) - 1
        for u in nb:
            adj[u].discard(v)
            inner[u] -= shared
        for u in touched:
            if alive[u]:
                d = len(adj[u])
                f = d * (d - 1) // 2 - inner[u]
                if f != fill[u]:
                    fill[u] = f
                    if f <= bound:
                        heappush(heap, (f, u))
        order.append(v)
        cliques.append(nb)      # v is dead, so nothing changes adj[v] again

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
