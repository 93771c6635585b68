import random

import pytest
from hypothesis import given, settings
from conftest import elimination_width, heap_eliminate
from hypothesis import strategies as st

from sepdecomp import graph, kernels
from sepdecomp.errors import PostconditionFailedError
from sepdecomp.generators import (
    cycle_graph,
    gnp_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_tree,
)
from sepdecomp.graph import (
    Separation,
    build_graph,
    component_mask,
    components_in,
    is_balanced,
    mask_vertices,
)


def reference_w_balanced(G, w_mask, max_order):
    """min_w_balanced_separation one candidate at a time: the first
    separator of ``kernels.separators`` whose components the greedy groups."""
    hi = 2 * w_mask.bit_count() // 3
    sizes = range(min(max_order, G.n) + 1)
    for k, z_mask, comps in kernels.separators(G.adj_masks, range(G.n), G.full_mask(), sizes):
        weights = [(c & w_mask).bit_count() for c in comps]
        lo = (w_mask & ~z_mask).bit_count() - hi
        a_mask = kernels._greedy_a_side(z_mask, comps, weights, lo, hi)
        if a_mask is not None:
            return k, z_mask, a_mask
    return None


def reference_treewidth(n, adj_masks):
    """The subset DP with Q(sub - v, v) read by a second pass: a search for
    v's component in G[sub], then an OR of its vertices' neighbour masks."""
    opt, choice = [-1] + [0] * ((1 << n) - 1), [0] * (1 << n)
    for sub in range(1, 1 << n):
        opt[sub] = n
        for v in mask_vertices(sub):
            reach, todo = 1 << v, [v]
            while todo:
                for u in mask_vertices(adj_masks[todo.pop()] & sub & ~reach):
                    reach |= 1 << u
                    todo.append(u)
            nbr = 0
            for u in mask_vertices(reach):
                nbr |= adj_masks[u]
            cost = max(opt[sub ^ 1 << v], (nbr & ~sub).bit_count())
            if cost < opt[sub]:
                opt[sub], choice[sub] = cost, v
    order, sub = [], (1 << n) - 1
    for _ in range(n):
        order.insert(0, choice[sub])
        sub ^= 1 << choice[sub]
    return opt[-1], tuple(order)


def draw_graph(data, max_n):
    """A hypothesis-drawn graph with at most `max_n` vertices."""
    n = data.draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, [e for e in pairs if data.draw(st.booleans())])


def seeded_kernel_cases(count=360, seed=18):
    """Graphs of up to 16 vertices, many disconnected, with W all of V, a
    random subset, one vertex or nothing (so many pieces weigh 0)."""
    rng = random.Random(seed)
    for i in range(count):
        n, kind = rng.randint(3, 16), i % 6
        if kind < 2:
            G = gnp_graph(n, (0.08, rng.choice([0.15, 0.3, 0.5]))[kind], i)
        elif kind == 2:
            G = random_tree(n, i)
        elif kind == 3:
            G = grid_graph(rng.randint(1, 4), rng.randint(1, 4))
        elif kind == 4:
            G = cycle_graph(n)
        else:
            G = partial_ktree(n, 2, seed=i)
        w_mask = (G.full_mask(), rng.getrandbits(G.n), 1 << rng.randrange(G.n), 0)[i // 6 % 4]
        yield G, w_mask, i % 5


def perfbench_sized_cases(seed=28):
    """Pieces the size of the benchmark's: paths, cycles, random trees and
    partial 2- and 3-trees with n = 60..300, with W all of V, a random
    subset or a sparse one (so one component can outweigh the rest), at
    max_order one below the answer (None) and at it."""
    rng = random.Random(seed)
    for n in (60, 150, 300):
        graphs = [(path_graph(n), 1), (cycle_graph(n), 2), (random_tree(n, n), 1),
                  (partial_ktree(n, 2, 0.8, n), 3)]
        if n < 300:  # past 150 vertices the reference's order-3 search takes seconds
            graphs.append((partial_ktree(n, 3, 0.8, n), 3))
        for G, top in graphs:
            sparse = sum(1 << v for v in rng.sample(range(n), n // 10))
            for w_mask in (G.full_mask(), rng.getrandbits(n), sparse):
                for max_order in (top - 1, top):
                    yield G, w_mask, max_order


class TestPureHelpers:
    def test_component_mask(self):
        # 0-1 edge, isolated 2: masks 0b011 and 0b100
        adj = (0b010, 0b001, 0b000)
        assert component_mask(adj, 0b111, 0) == (0b011, 0b011)
        assert component_mask(adj, 0b111, 2) == (0b100, 0b000)
        assert components_in(adj, 0b111) == [0b011, 0b100]
        # path 0-1-2 inside {0, 1}: 2 borders the component but is not in it
        path = (0b010, 0b101, 0b010)
        assert component_mask(path, 0b011, 0) == (0b011, 0b111)

    def test_components_respect_universe(self):
        adj = (0b010, 0b101, 0b010)
        assert components_in(adj, 0b101) == [0b001, 0b100]

    def test_sum_window(self):
        assert kernels._sum_window_reachable([2, 3], 2, 3)
        assert not kernels._sum_window_reachable([2, 3], 4, 4)
        assert kernels._sum_window_reachable([], 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=7), st.integers(0, 20), st.integers(0, 20))
    def test_sum_window_matches_bruteforce(self, sizes, lo, hi):
        reachable = {
            sum(s for s, pick in zip(sizes, picks) if pick)
            for picks in __import__("itertools").product((0, 1), repeat=len(sizes))
        }
        expected = any(lo <= r <= hi for r in reachable)
        assert kernels._sum_window_reachable(sizes, lo, hi) == expected


class TestPureKernels:
    def test_big_graph_bigint_path(self):
        # n = 70 exceeds any single machine word; order-1 search still exact
        G = path_graph(70)
        found = kernels.min_balanced_separation(G.n, G.adj_masks, 1)
        assert found is not None and found[0] == 1

    def test_no_separation_within_order(self):
        G = cycle_graph(10)
        assert kernels.min_balanced_separation(G.n, G.adj_masks, 1) is None

    def test_greedy_a_side_tie_break(self):
        # components {0,4}, {1}, {2,3}: the greedy walk takes {0,4} and stops
        # once the sides balance, although ({0,1,4}, {2,3}) is also balanced
        # with order 0 and has the lexicographically smaller A side
        G = build_graph(5, [(0, 4), (2, 3)])
        assert kernels.min_balanced_separation(G.n, G.adj_masks, G.n) == (0, 0, 0b10001)
        assert kernels._greedy_a_side(0, [0b10001, 0b00010, 0b01100], [2, 1, 2], 2, 3) == 0b10001
        alt = Separation(frozenset({0, 1, 4}), frozenset({2, 3}))
        assert is_balanced(G, alt) and alt.order == 0
        assert sorted(alt.a_side) < [0, 4]

    def test_greedy_a_side_postcondition(self, monkeypatch):
        # with a subset-sum test that always says yes, the walk ends outside
        # the window; the check is an exception, so it also runs under -O
        monkeypatch.setattr(kernels, "_sum_in_window", lambda sums, lo, hi: True)
        with pytest.raises(PostconditionFailedError, match="_greedy_a_side"):
            kernels._greedy_a_side(0, [0b1], [5], 1, 2)

    def test_separators_order(self):
        G = path_graph(3)
        assert list(kernels.separators(G.adj_masks, range(3), 0b111, range(2))) == [
            (0, 0b000, [0b111]),
            (1, 0b001, [0b110]),
            (1, 0b010, [0b001, 0b100]),
            (1, 0b100, [0b011]),
        ]

    def test_separators_respect_universe(self):
        G = path_graph(4)
        # inside {0, 1, 3}, removing 1 leaves 0 and 3 apart
        assert list(kernels.separators(G.adj_masks, [1], 0b1011, [1])) == [
            (1, 0b0010, [0b0001, 0b1000])
        ]


class TestTreewidthKernel:
    def test_matches_rescan_reference(self):
        # seeded gnp graphs and partial k-trees with n <= 11: the same value
        # and the same elimination order, tie-breaks included
        rng = random.Random(30)
        for i in range(320):
            n = rng.randint(1, 11)
            if i % 2 and n >= 4:
                G = partial_ktree(n, rng.randint(1, 3), rng.choice([0.5, 0.8, 1.0]), i)
            else:
                G = gnp_graph(n, rng.choice([0.1, 0.3, 0.5, 0.8]), i)
            assert kernels.treewidth(G.n, G.adj_masks) == reference_treewidth(G.n, G.adj_masks), (n, i)

    def test_empty_and_single_vertex(self):
        assert kernels.treewidth(0, ()) == reference_treewidth(0, ()) == (-1, ())
        assert kernels.treewidth(1, (0,)) == reference_treewidth(1, (0,)) == (0, (0,))


class TestBalancedSeparationKernel:
    """The mask DFS against a search that groups each candidate's components
    one separator at a time, in the same order."""

    def test_matches_reference_seeded(self):
        for G, w_mask, max_order in seeded_kernel_cases():
            found = kernels.min_w_balanced_separation(G.n, G.adj_masks, w_mask, max_order)
            assert found == reference_w_balanced(G, w_mask, max_order), (G, w_mask, max_order)

    def test_matches_reference_at_benchmark_sizes(self):
        for G, w_mask, max_order in perfbench_sized_cases():
            found = kernels.min_w_balanced_separation(G.n, G.adj_masks, w_mask, max_order)
            assert found == reference_w_balanced(G, w_mask, max_order), (G.n, w_mask, max_order)

    @pytest.mark.parametrize("G,max_order,order", [(path_graph(90), 1, 1), (cycle_graph(90), 2, 2)])
    def test_no_component_search(self, monkeypatch, G, max_order, order):
        # a path's answer has the empty prefix, a cycle's a one-vertex one;
        # both come out of the DFS walks alone
        calls = []
        real = graph.component_mask

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graph, "component_mask", counted)
        monkeypatch.setattr(kernels, "component_mask", counted)
        found = kernels.min_w_balanced_separation(G.n, G.adj_masks, G.full_mask(), max_order)
        assert found is not None and found[0] == order
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        G = draw_graph(data, 11)
        n = G.n
        w_mask = data.draw(st.integers(0, G.full_mask()))
        max_order = data.draw(st.integers(0, 4))
        found = kernels.min_w_balanced_separation(n, G.adj_masks, w_mask, max_order)
        assert found == reference_w_balanced(G, w_mask, max_order)
        if w_mask == G.full_mask():
            assert kernels.min_balanced_separation(n, G.adj_masks, max_order) == found


class TestEliminate:
    """``eliminate`` against the independent fill-in reference of conftest."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_later_neighbourhoods_and_forest(self, data):
        G = draw_graph(data, 12)
        n = G.n
        given_order = data.draw(st.permutations(range(n)))
        for wanted in (given_order, None):
            order, later, parent = kernels.eliminate(G.adj_masks, wanted)
            assert sorted(order) == list(range(n))
            if wanted is not None:
                assert list(order) == list(wanted)
                width = max((m.bit_count() for m in later), default=-1)
                assert width == elimination_width(G, wanted)
            step = {v: i for i, v in enumerate(order)}
            for v in range(n):
                after = [u for u in range(n) if later[v] >> u & 1]
                assert all(step[u] > step[v] for u in after)
                assert parent[v] == (min(after, key=step.get) if after else -1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_min_degree_takes_least_filled_degree(self, data):
        G = draw_graph(data, 12)
        n = G.n
        order, _, _ = kernels.eliminate(G.adj_masks)
        adj = [set(G.neighbors(v)) for v in range(n)]
        alive = set(range(n))
        for v in order:
            assert v == min(alive, key=lambda u: (len(adj[u] & alive), u))
            alive.discard(v)
            nb = adj[v] & alive
            for u in nb:
                adj[u] |= nb - {u}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_heap_reference(self, data):
        # degree buckets pick what the heap of (degree, vertex) entries picks,
        # and one scan over the order finds the same forest parents
        G = draw_graph(data, 24)
        given_order = data.draw(st.permutations(range(G.n)))
        for wanted in (given_order, None):
            got = kernels.eliminate(G.adj_masks, wanted)
            assert got == heap_eliminate(G.adj_masks, wanted)

    def test_matches_the_heap_reference_past_the_budget(self):
        # the graphs the cutter eliminates: partial 3- and 4-trees, n >= 100
        for k in (3, 4):
            for n in (100, 150, 200):
                G = partial_ktree(n, k, 0.8, n)
                assert kernels.eliminate(G.adj_masks) == heap_eliminate(G.adj_masks)

    def test_min_degree_ties_go_to_the_lowest_id(self):
        # a path 0-1-2-3: 0 and 3 have degree 1; 0 goes first, then 1
        order, later, parent = kernels.eliminate(path_graph(4).adj_masks)
        assert order == [0, 1, 2, 3]
        assert later == [0b10, 0b100, 0b1000, 0]
        assert parent == [1, 2, 3, -1]


class TestSelection:
    def test_implementation_flag(self):
        assert kernels.IMPLEMENTATION == "python"
