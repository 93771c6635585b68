from itertools import combinations

import pytest

from sepdecomp.errors import InvalidInputError, PostconditionFailedError
from sepdecomp.generators import complete_graph, gnp_graph, path_graph
from sepdecomp.graph import build_graph
from sepdecomp.menger import _NONE, _unit, disjoint_paths, separates


def brute_min_separator_size(G, S, T):
    """Smallest |Z| separating S from T, by exhaustive subset search."""
    for k in range(G.n + 1):
        for Z in combinations(range(G.n), k):
            if separates(G, set(Z), S, T):
                return k
    raise AssertionError("V(G) always separates")


class TestDisjointPaths:
    def test_path_graph_single_path(self):
        G = path_graph(4)
        res = disjoint_paths(G, {0}, {3}, 5)
        assert len(res.paths) == 1
        assert res.paths[0] == (0, 1, 2, 3)
        assert res.separator == {0}

    def test_k22_two_paths(self):
        G = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        res = disjoint_paths(G, {0, 1}, {2, 3}, 5)
        assert len(res.paths) == 2
        assert res.separator is not None and len(res.separator) == 2

    def test_overlap_yields_zero_length_paths(self):
        G = path_graph(3)
        res = disjoint_paths(G, {0, 1}, {1, 2}, 5)
        # vertex 1 is in both sides: a length-0 path, and the only route from
        # 0 to 2; a search that could cross 1 would find the path 0-1-2 too
        assert res.paths == ((1,),)
        assert res.separator == {1}

    def test_unit_walk_meets_empty_vertex(self):
        # 0's out-copy feeds 1_in, but 1 carries no flow
        with pytest.raises(PostconditionFailedError, match="lost a unit"):
            _unit(0, [2, _NONE, _NONE])

    def test_cap_reached_no_separator(self):
        G = complete_graph(5)
        res = disjoint_paths(G, {0, 1}, {3, 4}, 2)
        assert len(res.paths) == 2
        assert res.separator is None

    def test_paths_are_internally_disjoint(self):
        G = complete_graph(6)
        res = disjoint_paths(G, {0, 1, 2}, {3, 4, 5}, 10)
        seen = set()
        for p in res.paths:
            assert not (set(p) & seen)
            seen |= set(p)

    def test_negative_cap_rejected(self):
        # common[:-1] would hand back all but the last shared vertex
        with pytest.raises(InvalidInputError):
            disjoint_paths(path_graph(5), [0, 1, 2], [0, 1, 2], -1)

    def test_disconnected_no_paths(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        res = disjoint_paths(G, {0}, {3}, 5)
        assert res.paths == () and res.separator == frozenset()


class TestSeparates:
    def test_middle_vertex(self):
        G = path_graph(3)
        assert separates(G, {1}, {0}, {2})
        assert not separates(G, set(), {0}, {2})

    def test_common_vertex_must_be_cut(self):
        G = path_graph(3)
        assert not separates(G, set(), {0, 1}, {1, 2})
        assert separates(G, {1}, {0, 1}, {1, 2})


class TestDuality:
    """Max disjoint-path count equals min separator size (Menger)."""

    @pytest.mark.parametrize("n,p,seed", [(5, 0.4, 1), (6, 0.5, 2), (7, 0.3, 3)])
    def test_random_graphs(self, n, p, seed):
        G = gnp_graph(n, p, seed)
        for S, T in [({0}, {n - 1}), ({0, 1}, {n - 2, n - 1}), ({0, 1, 2}, {2, 3})]:
            res = disjoint_paths(G, S, T, n + 1)
            assert res.separator is not None
            assert len(res.paths) == len(res.separator)
            assert len(res.paths) == brute_min_separator_size(G, S, T)
            assert separates(G, res.separator, S, T)
