import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp import kernels
from sepdecomp.errors import PostconditionFailedError
from sepdecomp.generators import cycle_graph, path_graph
from sepdecomp.graph import Separation, build_graph, component_mask, components_in, is_balanced


class TestPureHelpers:
    def test_component_mask(self):
        # 0-1 edge, isolated 2: masks 0b011 and 0b100
        adj = (0b010, 0b001, 0b000)
        assert component_mask(adj, 0b111, 0) == 0b011
        assert components_in(adj, 0b111) == [0b011, 0b100]

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
        found = kernels.min_balanced_separation(G.n, G.adj_masks, G.adjacency, 1)
        assert found is not None and found[0] == 1

    def test_no_separation_within_order(self):
        G = cycle_graph(10)
        assert kernels.min_balanced_separation(G.n, G.adj_masks, G.adjacency, 1) is None

    def test_greedy_a_side_tie_break(self):
        # components {0,4}, {1}, {2,3}: the greedy walk takes {0,4} and stops
        # once the sides balance, although ({0,1,4}, {2,3}) is also balanced
        # with order 0 and has the lexicographically smaller A side
        G = build_graph(5, [(0, 4), (2, 3)])
        assert kernels.min_balanced_separation(G.n, G.adj_masks, G.adjacency, G.n) == (0, 0, 0b10001)
        assert kernels._greedy_a_side(0, [0b10001, 0b00010, 0b01100], [2, 1, 2], 2, 3) == 0b10001
        alt = Separation(frozenset({0, 1, 4}), frozenset({2, 3}))
        assert is_balanced(G, alt) and alt.order == 0
        assert sorted(alt.a_side) < [0, 4]

    def test_greedy_a_side_postcondition(self, monkeypatch):
        # with a subset-sum test that always says yes, the walk ends outside
        # the window; the check is an exception, so it also runs under -O
        monkeypatch.setattr(kernels, "_sum_window_reachable", lambda sizes, lo, hi: True)
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


class TestSelection:
    def test_implementation_flag(self):
        assert kernels.IMPLEMENTATION == "python"
