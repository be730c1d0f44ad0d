import hashlib
import random
import sys
from fractions import Fraction
from heapq import heapify

import pytest

from beta_reference import (_is_nest_point_reference, beta_elimination_order_reference,
                            is_valid_elimination_order_reference)
from corpus import (basic_incidence_graph, corpus_instance, exhaustive_beta_acyclic,
                    random_beta_acyclic_instance, random_cycle_hypergraph,
                    random_hypergraph, worked_example)
from decomposition_reference import (disconnected_reference, order_from_decomposition_reference,
                                     validate_reference)
from minfill_reference import minfill_decomposition_reference
from nnfopt import (Graph, Hypergraph, LiteralInstance, TreeDecomposition,
                    beta_elimination_order, cycle_decomposition, encode_basic,
                    formula_incidence_graph, gen_labs, incidence_graph, is_beta_acyclic,
                    is_valid_elimination_order, lift_decomposition,
                    minfill_decomposition, order_from_decomposition,
                    parse_instance)
from nnfopt.hypergraph import vertex_node


def worked_hypergraph():
    return worked_example().hypergraph


class TestHypergraphBasics:
    def test_vertices_must_cover_edges(self):
        with pytest.raises(ValueError):
            Hypergraph([1, 2], [{1, 3}])

    def test_empty_edges_rejected_by_default(self):
        with pytest.raises(ValueError):
            Hypergraph([1], [set()])

    def test_multiset_edges_keep_positions(self):
        h = Hypergraph([1, 2], [{1, 2}, {1, 2}])
        assert len(h.edges) == 2
        assert h.edge_vertices(0) == h.edge_vertices(1) == (1, 2)

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertices"):
            Hypergraph([1, 1, 2], [{1, 2}])
        with pytest.raises(TypeError):
            Hypergraph([[1]])

    def test_graph_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops are not supported"):
            Graph().add_edge(1, 1)

    @pytest.mark.parametrize("sigma, profit, message", [
        (({1: 1, 2: 1},), (), "sigma and profit must have one entry per edge"),
        (({1: 1},), (1,), "sigma of edge 0 must be defined exactly on its vertices"),
        (({1: 1, 2: 2},), (1,), "polarities must be 0/1 bits"),
    ])
    def test_literal_instance_rules(self, sigma, profit, message):
        with pytest.raises(ValueError, match=message):
            LiteralInstance(Hypergraph([1, 2], [{1, 2}]), sigma, profit)


class TestBetaAcyclicity:
    def test_worked_example_beta_order(self):
        h = worked_hypergraph()
        order = beta_elimination_order(h)
        assert order is not None
        assert is_valid_elimination_order(h, order)
        # the natural order from the worked example is itself valid
        assert is_valid_elimination_order(h, (1, 2, 3, 4, 5, 6))
        assert is_beta_acyclic(h)

    def test_no_edges_any_order(self):
        h = Hypergraph([3, 1, 2])
        assert beta_elimination_order(h) is not None
        assert is_valid_elimination_order(h, (1, 2, 3))
        assert is_valid_elimination_order(h, (3, 2, 1))

    def test_single_edge(self):
        assert is_beta_acyclic(Hypergraph([1, 2, 3], [{1, 2, 3}]))

    def test_triangle_graph_not_beta_acyclic(self):
        h = Hypergraph([1, 2, 3], [{1, 2}, {2, 3}, {3, 1}])
        assert not is_beta_acyclic(h)
        assert not exhaustive_beta_acyclic(h)

    def test_greedy_agrees_with_exhaustive_search(self):
        rng = random.Random(2024)
        for _ in range(120):
            h = random_hypergraph(rng, max_v=8, max_e=8)
            assert is_beta_acyclic(h) == exhaustive_beta_acyclic(h)

    def test_order_is_lowest_id_greedy(self):
        assert beta_elimination_order(worked_hypergraph()) == (1, 2, 3, 4, 5, 6)


def interval_hypergraph(rng: random.Random, n: int) -> Hypergraph:
    """2n intervals of 2-6 consecutive vertices on the path 0..n-1."""
    edges = []
    for _ in range(2 * n):
        size = rng.randint(2, min(6, n))
        start = rng.randint(0, n - size)
        edges.append(range(start, start + size))
    return Hypergraph(range(n), edges)


def random_elimination_order(rng: random.Random, h: Hypergraph):
    """A uniformly drawn nest point per round, so a valid order that is
    in general not the greedy one; None when h is not beta-acyclic."""
    remaining, edges, order = set(h.vertices), list(h.edges), []
    while remaining:
        nests = [v for v in sorted(remaining) if _is_nest_point_reference(v, edges)]
        if not nests:
            return None
        pick = rng.choice(nests)
        order.append(pick)
        remaining.discard(pick)
        edges = [e - {pick} for e in edges if e - {pick}]
    return tuple(order)


class TestBetaMatchesReference:
    """beta_elimination_order and is_valid_elimination_order give the
    orders and verdicts of the frozen copies in tests/beta_reference.py."""

    def assert_same(self, h: Hypergraph, rng: random.Random) -> None:
        order = beta_elimination_order(h)
        assert order == beta_elimination_order_reference(h)
        proposals = [tuple(h.vertices), tuple(reversed(h.vertices)),
                     tuple(h.vertices)[1:], tuple(h.vertices) + tuple(h.vertices)[:1]]
        if order is not None:
            proposals += [order, random_elimination_order(rng, h)]
        for _ in range(3):
            shuffled = list(h.vertices)
            rng.shuffle(shuffled)
            proposals.append(tuple(shuffled))
        for proposal in proposals:
            assert (is_valid_elimination_order(h, proposal)
                    == is_valid_elimination_order_reference(h, proposal)), proposal
        if order is not None:
            assert is_valid_elimination_order(h, order)

    def test_random_hypergraphs(self):
        rng = random.Random(1212)
        acyclic = 0
        for _ in range(300):
            h = random_hypergraph(rng, max_v=9, max_e=9)
            if h.edges and rng.random() < 0.5:
                # repeat some edges: edge identity is positional
                extra = [rng.choice(h.edges) for _ in range(rng.randint(1, 3))]
                h = Hypergraph(h.vertices, h.edges + tuple(extra))
            acyclic += beta_elimination_order(h) is not None
            self.assert_same(h, rng)
        for _ in range(100):
            h = random_beta_acyclic_instance(rng, max_v=9, max_e=9).hypergraph
            self.assert_same(Hypergraph(h.vertices, h.edges + h.edges[:1]), rng)
        assert 30 < acyclic < 270, acyclic

    def test_acceptance_corpus(self):
        rng = random.Random(20250809)
        for _ in range(500):
            self.assert_same(corpus_instance(rng).hypergraph, rng)

    def test_intervals(self):
        rng = random.Random(0)
        for n in (2, 5, 16, 60, 250):
            h = interval_hypergraph(rng, n)
            assert beta_elimination_order(h) is not None
            self.assert_same(h, rng)

    def test_greedy_never_validates_a_non_order(self):
        h = Hypergraph([1, 2, 3], [{1, 2}, {2, 3}, {3, 1}])
        for order in ((1, 2, 3), (3, 2, 1), (1, 2), (1, 2, 3, 4), (1, 1, 2, 3)):
            assert not is_valid_elimination_order(h, order)


class TestGraphBipartite:
    def test_equals_add_edge_build(self):
        rng = random.Random(5)
        for _ in range(50):
            left = [("v", i) for i in rng.sample(range(30), rng.randint(0, 12))]
            right = [(("c", j), rng.sample(left, rng.randint(0, len(left))))
                     for j in range(rng.randint(0, 8))]
            g = Graph(left)
            for node, near in right:
                g.add_node(node)
                for u in near:
                    g.add_edge(u, node)
            b = Graph.bipartite(left, right)
            assert b.nodes == g.nodes
            assert all(b.neighbors(n) == g.neighbors(n) for n in g.nodes)

    @pytest.mark.parametrize("left, right", [
        ([1, 1], []),
        ([1, 2], [(2, [1])]),
        ([1], [(3, [1]), (3, [])]),
    ])
    def test_sides_must_be_distinct_nodes(self, left, right):
        with pytest.raises(ValueError, match="distinct nodes"):
            Graph.bipartite(left, right)

    @pytest.mark.parametrize("left, right", [
        ([1], [(2, [3])]),
        ([1], [(2, [1]), (3, [2])]),
        ([], [(2, [2])]),
    ])
    def test_neighbours_must_be_in_left(self, left, right):
        with pytest.raises(ValueError, match="neighbour outside left"):
            Graph.bipartite(left, right)


class TestIncidenceGraph:
    def test_worked_example_counts(self):
        g = incidence_graph(worked_hypergraph())
        assert g.node_count == 9
        assert g.edge_count == 3 + 2 + 5

    def test_no_edges_isolated_nodes(self):
        g = incidence_graph(Hypergraph([1, 2]))
        assert g.node_count == 2 and g.edge_count == 0

    def test_equals_add_edge_build(self):
        rng = random.Random(2504)
        for i in range(400):
            h = (corpus_instance(rng).hypergraph if i % 2 else
                 random_hypergraph(rng, max_v=12, max_e=12))
            g = Graph(("v", v) for v in h.vertices)
            for j in range(len(h.edges)):
                g.add_node(("e", j))
                for v in h.edge_vertices(j):
                    g.add_edge(("v", v), ("e", j))
            b = incidence_graph(h)
            assert b.nodes == g.nodes
            assert [list(s) for s in b._adj.values()] == [list(s) for s in g._adj.values()]

    def test_duplicate_edge_gets_two_nodes(self):
        g = incidence_graph(Hypergraph([1, 2], [{1, 2}, {1, 2}]))
        assert g.node_count == 4
        assert g.edge_count == 4


class TestCycleDecomposition:
    def test_four_cycle(self):
        h = Hypergraph([1, 2, 3, 4], [{1, 2}, {2, 3}, {3, 4}, {4, 1}])
        td = cycle_decomposition(h)
        assert td is not None and td.width == 2
        td.validate(incidence_graph(h))

    def test_two_disjoint_edges(self):
        assert cycle_decomposition(Hypergraph([1, 2, 3, 4], [{1, 2}, {3, 4}])) is None

    def test_path_and_two_cycles_are_not_one_cycle(self):
        # the path's end edges meet one edge each; each triangle's edges
        # meet two, but the walk closes after three of the six
        assert cycle_decomposition(Hypergraph([1, 2, 3, 4], [{1, 2}, {2, 3}, {3, 4}])) is None
        assert cycle_decomposition(Hypergraph(range(1, 7), [
            {1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 6}, {6, 4}])) is None

    def test_vertex_in_no_edge_hangs_on_bag_zero(self):
        h = Hypergraph([1, 2, 3, 7], [{1, 2}, {2, 3}, {3, 1}])
        td = cycle_decomposition(h)
        td.validate(incidence_graph(h))
        [bag] = [b for b, s in td.bags.items() if s == {vertex_node(7)}]
        assert td.tree[bag] == {0}

    def test_large_edge_still_width_two(self):
        big = set(range(10, 20))
        h = Hypergraph(sorted({1, 2, 3} | big),
                       [{1, 2}, {2, 3} | big, {3, 1}])
        td = cycle_decomposition(h)
        assert td is not None and td.width == 2
        td.validate(incidence_graph(h))

    def test_three_edges_with_common_vertex_rejected(self):
        # the width-2 path construction cannot stay connected here, and in
        # fact the incidence graph has a K4 minor
        h = Hypergraph([1, 2, 3, 9], [{1, 2, 9}, {2, 3, 9}, {3, 1, 9}])
        assert cycle_decomposition(h) is None

    def test_random_cycle_hypergraphs(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_cycle_hypergraph(rng)
            td = cycle_decomposition(h)
            assert td is not None and td.width <= 2
            td.validate(incidence_graph(h))


class TestMinfill:
    def test_path_graph_width_one(self):
        g = Graph()
        for i in range(4):
            g.add_edge(i, i + 1)
        td = minfill_decomposition(g)
        assert td.width == 1
        td.validate(g)

    def test_clique_width_three(self):
        g = Graph()
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        td = minfill_decomposition(g)
        assert td.width == 3
        td.validate(g)

    def test_worked_incidence_graph(self):
        g = incidence_graph(worked_hypergraph())
        td = minfill_decomposition(g)
        assert td.width >= 1
        td.validate(g)

    def test_disconnected_and_empty(self):
        g = Graph([1, 2, 3])
        td = minfill_decomposition(g)
        td.validate(g)
        td0 = minfill_decomposition(Graph())
        assert td0.width <= 0


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def labs_graph(n: int) -> Graph:
    """Incidence graph of the basic encoding of gen-labs n 3, the graph
    the auto path orders."""
    return formula_incidence_graph(encode_basic(parse_instance(gen_labs(n, 3)).instance))


def graph_of(edges, label=lambda u: u) -> Graph:
    g = Graph()
    for u, v in edges:
        g.add_edge(label(u), label(v))
    return g


def core_with_tails(k: int, tails, base: int = 0) -> list:
    """Edges of K_{k,k} on base .. base+2k-1, plus a pendant path of
    `length` new nodes off core node base+c for each (c, length) in tails."""
    edges = [(base + a, base + b) for a in range(k) for b in range(k, 2 * k)]
    nxt = base + 2 * k
    for c, length in tails:
        end = base + c
        for _ in range(length):
            edges.append((end, nxt))
            end, nxt = nxt, nxt + 1
    return edges


def hub_over_cliques(rng: random.Random) -> list:
    """Edges of a hub 0 joined to every node of a few disjoint cliques and
    to a few leaves."""
    edges, nxt = [], 1
    for _ in range(rng.randint(2, 5)):
        members = range(nxt, nxt + rng.randint(2, 6))
        edges += [(a, b) for a in members for b in members if a < b]
        edges += [(0, m) for m in members]
        nxt = members.stop
    edges += [(0, leaf) for leaf in range(nxt, nxt + rng.randint(0, 5))]
    return edges


def hub_instance(rng: random.Random) -> LiteralInstance:
    """A random literal instance whose every edge holds vertex 1."""
    nv = rng.randint(3, 9)
    edges = [{1, *rng.sample(range(2, nv + 1), rng.randint(1, min(3, nv - 1)))}
             for _ in range(rng.randint(2, 12))]
    sigma = tuple({v: rng.randint(0, 1) for v in e} for e in edges)
    return LiteralInstance(Hypergraph(range(1, nv + 1), edges), sigma,
                           tuple(Fraction(rng.randint(-9, 9)) for _ in edges))


def traced_lines(fn, *args) -> int:
    """Python lines executed in fn's module while fn runs: a deterministic
    work count that includes every comprehension and lambda there."""
    target = fn.__code__.co_filename
    count = 0

    def line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == target else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class TestMinfillMatchesReference:
    """The incremental min-fill returns the bags and tree of the frozen
    scan-and-recount reference in tests/minfill_reference.py."""

    def assert_same(self, g: Graph) -> None:
        got, want = minfill_decomposition(g), minfill_decomposition_reference(g)
        assert got.bags == want.bags
        assert got.tree == want.tree

    def test_random_graphs(self):
        rng = random.Random(606)
        self.assert_same(Graph())
        self.assert_same(Graph(range(7)))
        for _ in range(150):
            n = rng.randint(1, 40)
            self.assert_same(random_graph(rng, n, rng.choice((0.05, 0.1, 0.3, 0.6, 0.9))))
        for _ in range(30):
            # disjoint random pieces under interleaved labels
            g = Graph()
            for part in range(rng.randint(2, 4)):
                piece = random_graph(rng, rng.randint(1, 12), 0.4)
                for u in piece.nodes:
                    g.add_node((u, part))
                for u, v in piece.edges():
                    g.add_edge((u, part), (v, part))
            self.assert_same(g)

    def test_acceptance_corpus_incidence_graphs(self):
        rng = random.Random(20250809)
        for _ in range(500):
            inst = corpus_instance(rng)
            self.assert_same(incidence_graph(inst.hypergraph))
            self.assert_same(formula_incidence_graph(encode_basic(inst)))

    def test_hubs_and_heap_rebuilds(self, monkeypatch):
        # The heap holds only the nodes within a bound of the least fill.
        # Pendant paths into a K_{k,k} core leave the heap dry once the
        # paths are gone, so it is rebuilt; hubs sit far above the least
        # fill for most of the elimination.
        import nnfopt.hypergraph as hg
        builds = []
        monkeypatch.setattr(hg, "heapify", lambda heap: (builds.append(len(heap)), heapify(heap)))
        rng = random.Random(2410)
        for k in (4, 5):
            for _ in range(15):
                tails = [(rng.randrange(2 * k), rng.randint(1, 6))
                         for _ in range(rng.randint(1, 4))]
                edges = core_with_tails(k, tails)
                labels = rng.sample(range(1000), 2 * k + sum(n for _, n in tails))
                before = len(builds)
                self.assert_same(graph_of(edges, labels.__getitem__))
                assert len(builds) - before >= 2
        for _ in range(30):
            edges = hub_over_cliques(rng)
            labels = rng.sample(range(1000), 1 + max(max(e) for e in edges))
            self.assert_same(graph_of(edges, labels.__getitem__))
        for _ in range(100):
            self.assert_same(formula_incidence_graph(encode_basic(hub_instance(rng))))

    @pytest.mark.parametrize("n", range(8, 15))
    def test_labs(self, n):
        self.assert_same(labs_graph(n))

    @pytest.mark.parametrize("n,digest", [
        (12, "b5219819419a5dea649f25091e191b58c620beb55b3e97f506d3411a93516c46"),
        (16, "1991e9b7b8ba41354ff95102ed1c7ffd6d0e191f81d582ab9abae4a3d108b295"),
    ])
    def test_labs_branch_order_pinned(self, n, digest):
        order = order_from_decomposition(minfill_decomposition(labs_graph(n)))
        assert hashlib.sha256(repr(order).encode()).hexdigest() == digest

    @pytest.mark.parametrize("family", ["path", "cycle of triples", "hub", "cores with tails"])
    def test_work_grows_linearly(self, family):
        # Min-fill finds widths 1, 4, 2 and 4 here at every n, so an
        # elimination costs O(1) unless the next node is found by scanning
        # the live nodes; the count then grows quadratically (2.9-3.6x per
        # doubling at these sizes for a scan over a set of ints).  The hub
        # is in every edge, so its fill changes at most eliminations; the
        # cores with tails leave the heap dry once their tails are gone,
        # so it is rebuilt from a scan of the live fills.
        counts = []
        for n in (100, 200, 400):
            if family == "path":
                g = incidence_graph(Hypergraph(range(n), [{i, i + 1} for i in range(n - 1)]))
            elif family == "cycle of triples":
                g = incidence_graph(Hypergraph(
                    range(n), [{i, (i + 1) % n, (i + 2) % n} for i in range(n)]))
            elif family == "hub":
                g = incidence_graph(Hypergraph(range(n), [{0, i, i + 1} for i in range(1, n - 1)]))
            else:
                g = graph_of(e for j in range(n // 20)
                             for e in core_with_tails(4, [(0, 12)], 20 * j))
            counts.append(traced_lines(minfill_decomposition, g))
        for small, large in zip(counts, counts[1:]):
            assert large < 2.5 * small, counts


class TestLiftDecomposition:
    def test_single_edge_bound(self):
        h = Hypergraph([1, 2, 3], [{1, 2, 3}])
        td = minfill_decomposition(incidence_graph(h))
        lifted = lift_decomposition(td, h)
        assert lifted.width <= 2 * (1 + td.width)
        lifted.validate(basic_incidence_graph(h))

    def test_worked_example_bound(self):
        h = worked_hypergraph()
        td = minfill_decomposition(incidence_graph(h))
        lifted = lift_decomposition(td, h)
        assert lifted.width <= 2 * (1 + td.width)
        lifted.validate(basic_incidence_graph(h))

    def test_no_edges_rename_only(self):
        h = Hypergraph([1, 2])
        td = minfill_decomposition(incidence_graph(h))
        lifted = lift_decomposition(td, h)
        lifted.validate(basic_incidence_graph(h))
        assert lifted.width == td.width

    @pytest.mark.parametrize("h", [
        Hypergraph([1, 2, 3], [{1, 2}, {2, 3}, {1, 2}]),
        Hypergraph([1, 2, 3, 4], [{1, 2}, {2, 3}]),
    ], ids=["repeated-edge", "isolated-vertex"])
    def test_degenerate_hypergraphs(self, h):
        td = minfill_decomposition(incidence_graph(h))
        lifted = lift_decomposition(td, h)
        assert lifted.width <= 2 * (1 + td.width)
        lifted.validate(basic_incidence_graph(h))

    def test_invalid_input_rejected(self):
        h = worked_hypergraph()
        bogus = TreeDecomposition({0: [("v", 1)]}, [])
        with pytest.raises(ValueError):
            lift_decomposition(bogus, h)

    def test_random_instances_bound(self):
        rng = random.Random(99)
        for _ in range(60):
            h = random_hypergraph(rng, max_v=6, max_e=5)
            td = minfill_decomposition(incidence_graph(h))
            lifted = lift_decomposition(td, h)
            assert lifted.width <= 2 * (1 + td.width)
            lifted.validate(basic_incidence_graph(h))


class TestTreeDecompositionValidation:
    def test_missing_edge_coverage(self):
        g = Graph()
        g.add_edge(1, 2)
        td = TreeDecomposition({0: [1], 1: [2]}, [(0, 1)])
        with pytest.raises(ValueError, match="not covered"):
            td.validate(g)

    def test_first_uncovered_edge_named(self):
        # edges are checked in graph.edges() order: (1, 3) before (2, 3)
        g = Graph()
        for u, v in ((2, 3), (1, 2), (1, 3)):
            g.add_edge(u, v)
        td = TreeDecomposition({0: [1, 2], 1: [3]}, [(0, 1)])
        with pytest.raises(ValueError, match=r"^edge \(1, 3\) not covered by any bag$"):
            td.validate(g)
        g.add_edge(3, 4)
        with pytest.raises(ValueError, match=r"nodes never covered: \[4\]"):
            td.validate(g)

    def test_disconnected_occurrences(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        td = TreeDecomposition({0: [1, 2], 1: [2, 3], 2: [1]},
                               [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not connected"):
            td.validate(g)

    def test_disconnected_matches_a_search_per_element(self):
        rng = random.Random(19)
        for _ in range(2000):
            nb = rng.randint(1, 8)
            ids = rng.sample(range(20), nb)
            edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, nb)]
            td = TreeDecomposition({b: rng.sample(range(6), rng.randint(0, 4))
                                    for b in ids}, edges)
            expect = set()
            for v in set().union(*td.bags.values()):
                holding = {b for b, bag in td.bags.items() if v in bag}
                seen, stack = set(), [min(holding)]
                while stack:
                    b = stack.pop()
                    if b not in seen:
                        seen.add(b)
                        stack.extend(td.tree[b] & holding)
                if seen != holding:
                    expect.add(v)
            assert td.disconnected() == expect

    def test_tree_edge_to_an_unknown_bag_rejected(self):
        with pytest.raises(ValueError, match="tree edge mentions unknown bag"):
            TreeDecomposition({0: {1}, 1: {1}}, [(0, 1), (1, 2)])

    def test_tree_edge_from_a_bag_to_itself_rejected(self):
        # a loop would count as half an edge in a count of tree edges
        with pytest.raises(ValueError, match="from a bag to itself"):
            TreeDecomposition({0: {("v", 1), ("c", 0)}, 1: {("c", 0), ("v", 2)},
                               2: {("v", 2)}}, [(0, 1), (1, 2), (2, 2)])

    def test_not_a_tree(self):
        g = Graph([1])
        td = TreeDecomposition({0: [1], 1: [1], 2: [1]},
                               [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="tree"):
            td.validate(g)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def random_tree_decomposition(rng: random.Random, connected: bool) -> TreeDecomposition:
    """A random tree over up to 9 bags holding vertex and clause nodes; with
    connected, each node's bags are grown as a subtree from one bag."""
    nb = rng.randint(1, 9)
    ids = rng.sample(range(30), nb)
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, nb)]
    near = TreeDecomposition({b: () for b in ids}, edges).tree
    bags = {b: set() for b in ids}
    for el in ([("v", i) for i in range(rng.randint(0, 7))]
               + [("c", j) for j in range(rng.randint(0, 4))]):
        if connected:
            members = {rng.choice(ids)}
            for _ in range(rng.randint(0, nb - 1)):
                rim = sorted(set().union(*(near[m] for m in members)) - members)
                if rim:
                    members.add(rng.choice(rim))
        else:
            members = rng.sample(ids, rng.randint(1, nb))
        for m in members:
            bags[m].add(el)
    return TreeDecomposition(bags, edges)


def random_covering_graph(rng: random.Random, td: TreeDecomposition) -> Graph:
    """A graph over td's elements, some edges and at times an extra node."""
    nodes = sorted(set().union(*td.bags.values()))
    g = Graph(nodes)
    for _ in range(rng.randint(0, 2 * len(nodes))):
        u, v = rng.sample(nodes, 2) if len(nodes) > 1 else (None, None)
        if u is not None:
            g.add_edge(u, v)
    if rng.random() < 0.3:
        g.add_node(("v", 99))
    return g


class TestWalkMatchesReference:
    """walk-based order_from_decomposition, disconnected and validate
    against frozen copies of their former breadth-first tree check, count
    of bags minus tree edges and dict-driven sweep."""

    def assert_same(self, td: TreeDecomposition, g: Graph = None) -> None:
        assert outcome(order_from_decomposition, td) == \
            outcome(order_from_decomposition_reference, td)
        try:
            td.walk()
        except ValueError as err:
            assert str(err) == "bag graph is not a tree"
            assert outcome(td.disconnected) == ("ValueError", "bag graph is not a tree")
        else:
            assert td.disconnected() == disconnected_reference(td)
        if g is not None:
            assert outcome(td.validate, g) == outcome(validate_reference, td, g)

    def test_random_trees(self):
        rng = random.Random(2501)
        orders = faults = 0
        for i in range(1500):
            td = random_tree_decomposition(rng, connected=i % 2 == 0)
            self.assert_same(td, random_covering_graph(rng, td))
            got = outcome(order_from_decomposition, td)
            orders += isinstance(got, tuple) and len(got) > 1 and got[0] != "ValueError"
            faults += got == ("ValueError", "decomposition violates connectedness")
        assert orders > 300 and faults > 300

    def test_forests_cycles_and_empty(self):
        rng = random.Random(2502)
        for _ in range(600):
            td = random_tree_decomposition(rng, connected=True)
            edges = [(a, b) for a in td.tree for b in td.tree[a] if a < b]
            ids = list(td.bags)
            kind = rng.choice(["forest", "cycle", "cycle plus island", "twice"])
            if kind == "forest" and edges:
                edges.remove(rng.choice(edges))
            elif kind == "cycle" and len(ids) > 2:
                a, b = rng.sample(ids, 2)
                edges.append((a, b))
            elif kind == "cycle plus island" and len(ids) > 3:
                a, b, c, d = rng.sample(ids, 4)
                edges = [(a, b), (b, c), (c, a)] + [(x, a) for x in ids if x not in (a, b, c, d)]
            elif kind == "twice" and edges:
                a, b = rng.choice(edges)
                edges.append((b, a))
            broken = TreeDecomposition(td.bags, edges)
            self.assert_same(broken, random_covering_graph(rng, broken))
        empty = TreeDecomposition({}, [])
        self.assert_same(empty, Graph())
        assert outcome(empty.walk) == ("ValueError", "bag graph is not a tree")
        with pytest.raises(ValueError, match="from a bag to itself"):
            TreeDecomposition({0: {("v", 1)}, 1: {("v", 1)}}, [(0, 1), (1, 1)])

    def test_split_elements_and_wrong_kinds(self):
        rng = random.Random(2503)
        wrong = [("x", 1), ("v", 1, 2), ("e", 0), 7, "v"]
        seen = set()
        for i in range(800):
            td = random_tree_decomposition(rng, connected=True)
            bags = {b: set(s) for b, s in td.bags.items()}
            edges = [(a, b) for a in td.tree for b in td.tree[a] if a < b]
            ids = sorted(bags)
            apart = [(a, b) for a in ids for b in ids if a < b and b not in td.tree[a]]
            if i % 4 != 1 and apart:            # split a node over two bags
                el = rng.choice([("v", 50), ("c", 50)])
                for b in rng.choice(apart):
                    bags[b].add(el)
            if i % 4 != 0:                       # add a node of the wrong kind
                bags[rng.choice(ids)].add(rng.choice(wrong))
            faulty = TreeDecomposition(bags, edges)
            self.assert_same(faulty)
            seen.add(outcome(order_from_decomposition, faulty))
        assert {("ValueError", "decomposition violates connectedness"),
                ("ValueError", "bags must contain incidence-graph nodes")} <= seen

    def test_minfill_decompositions(self):
        rng = random.Random(20250809)
        for _ in range(500):
            inst = corpus_instance(rng)
            for g in (formula_incidence_graph(encode_basic(inst)),
                      incidence_graph(inst.hypergraph)):
                self.assert_same(minfill_decomposition(g), g)
        for n in range(8, 15):
            g = labs_graph(n)
            td = minfill_decomposition(g)
            self.assert_same(td, g)
            assert order_from_decomposition(td) == order_from_decomposition_reference(td)
