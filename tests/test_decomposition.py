import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp.errors import InvalidInputError, OracleFailureError
from sepdecomp.constructor import construct
from sepdecomp.generators import complete_graph, cycle_graph, gnp_graph, grid_graph, path_graph, random_tree
from sepdecomp.graph import Separation, build_graph
from sepdecomp.separations import SeparatorOracleOutcome
from sepdecomp.decomposition import (
    RootedTreeDecomposition,
    restrict_decomposition,
    separation_tree,
    validate_decomposition,
    width,
)


def td(host_n, parents, bags):
    return RootedTreeDecomposition(
        host_n, tuple(parents), tuple(frozenset(b) for b in bags)
    )


class TestStructure:
    def test_root_and_children(self):
        t = td(3, [-1, 0, 0], [{0}, {0, 1}, {0, 2}])
        assert t.root == 0
        assert t.children() == [[1, 2], [], []]
        assert t.depths() == [0, 1, 1]
        assert t.preorder() == [0, 1, 2]
        assert t.leaves() == [1, 2]

    def test_two_roots_rejected(self):
        with pytest.raises(InvalidInputError):
            td(1, [-1, -1], [{0}, {0}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            td(1, [-1, 0], [{0}])

    def test_boundary_interior(self):
        # path decomposition of P4: bags {0,1},{1,2},{2,3} in a chain
        t = td(4, [-1, 0, 1], [{0, 1}, {1, 2}, {2, 3}])
        assert t.boundaries() == [frozenset(), {1}, {2}]
        assert t.interiors() == [{0, 1, 2, 3}, {2, 3}, {3}]

    def test_width(self):
        assert width(td(3, [-1], [{0, 1, 2}])) == 2
        assert width(td(0, [-1], [set()])) == -1


class TestValidate:
    def test_valid_path_decomposition(self):
        G = path_graph(4)
        ok, v = validate_decomposition(G, td(4, [-1, 0, 1], [{0, 1}, {1, 2}, {2, 3}]))
        assert ok and not v

    def test_uncovered_edge(self):
        G = path_graph(3)
        ok, v = validate_decomposition(G, td(3, [-1, 0], [{0, 1}, {2}]))
        assert not ok and any("uncovered" in s for s in v)

    def test_missing_vertex(self):
        G = build_graph(2, [])
        ok, v = validate_decomposition(G, td(2, [-1], [{0}]))
        assert not ok and any("in no bag" in s for s in v)

    def test_disconnected_holders(self):
        G = path_graph(3)
        bad = td(3, [-1, 0, 1], [{0, 1}, {1, 2}, {0, 2}])
        ok, v = validate_decomposition(G, bad)
        assert not ok and any("not connected" in s for s in v)

    def test_cycle_in_parents(self):
        t = RootedTreeDecomposition.__new__(RootedTreeDecomposition)
        object.__setattr__(t, "host_n", 1)
        object.__setattr__(t, "parents", (-1, 2, 1))
        object.__setattr__(t, "bags", (frozenset({0}),) * 3)
        ok, v = validate_decomposition(build_graph(1, []), t)
        assert not ok and any("cycle" in s for s in v)


def reference_validate(G, td):
    """validate_decomposition as it was: one scan over all bags per vertex
    and per edge.  The one-pass version must give the same verdict and the
    same violations, in the same order."""
    violations = []
    n_nodes = td.size
    if n_nodes == 0:
        return False, ["empty tree"]
    depth = [-2] * n_nodes
    for x in range(n_nodes):
        chain = []
        y = x
        while depth[y] == -2:
            chain.append(y)
            p = td.parents[y]
            if p == -1:
                depth[y] = 0
                break
            if not (0 <= p < n_nodes):
                violations.append(f"node {y}: parent {p} out of range")
                return False, violations
            if p in chain:
                violations.append(f"cycle through node {p}")
                return False, violations
            y = p
        for y in reversed(chain):
            if depth[y] == -2:
                depth[y] = depth[td.parents[y]] + 1
    for b in td.bags:
        for v in b:
            if not (0 <= v < G.n):
                violations.append(f"bag vertex {v} out of range")
    for u, v in G.edges():
        if not any(u in b and v in b for b in td.bags):
            violations.append(f"edge ({u},{v}) uncovered")
    for v in range(G.n):
        holders = [x for x in range(n_nodes) if v in td.bags[x]]
        if not holders:
            violations.append(f"vertex {v} in no bag")
            continue
        holder_set = set(holders)
        internal_edges = sum(
            1 for x in holders
            if td.parents[x] != -1 and td.parents[x] in holder_set
        )
        if internal_edges != len(holders) - 1:
            violations.append(f"vertex {v} bags not connected")
    return not violations, violations


def raw_td(host_n, parents, bags):
    """A decomposition object that skips the constructor's own checks."""
    t = RootedTreeDecomposition.__new__(RootedTreeDecomposition)
    object.__setattr__(t, "host_n", host_n)
    object.__setattr__(t, "parents", tuple(parents))
    object.__setattr__(t, "bags", tuple(frozenset(b) for b in bags))
    return t


def corrupted(G, t, rng):
    """A seeded random corruption of the decomposition t of G."""
    parents = list(t.parents)
    bags = [set(b) for b in t.bags]
    x = rng.randrange(t.size)
    kind = rng.randrange(6)
    if kind == 0 and bags[x]:
        bags[x].discard(rng.choice(sorted(bags[x])))
    elif kind == 1:
        bags[x].add(rng.randrange(G.n))
    elif kind == 2:
        bags[x].add(rng.choice([-1, G.n, G.n + 3]))
    elif kind == 3:
        bags[x] = set()
    elif kind == 4 and t.size > 1:
        parents[x] = rng.choice([-1, t.size, rng.randrange(t.size)])
    else:
        v = rng.randrange(G.n)
        bags = [b - {v} if rng.random() < 0.5 else b for b in bags]
    return raw_td(t.host_n, parents, bags)


class TestValidateMatchesReference:
    @staticmethod
    def decompositions():
        for G, a in [
            (path_graph(60), 1),
            (cycle_graph(90), 2),
            (random_tree(80, seed=5), 1),
            (gnp_graph(40, 0.08, 3), 4),
        ]:
            yield G, construct(G, a, {0}).decomposition
        for G in (grid_graph(6, 6), gnp_graph(12, 0.3, 7), complete_graph(5)):
            yield G, separation_tree(G, -(-G.n // 3), 3)

    def test_valid_and_corrupted(self):
        rng = random.Random(0)
        verdicts = set()
        for G, t in self.decompositions():
            assert validate_decomposition(G, t) == reference_validate(G, t) == (True, [])
            for _ in range(60):
                bad = corrupted(G, t, rng)
                got = validate_decomposition(G, bad)
                assert got == reference_validate(G, bad)
                verdicts.add(got[0])
        assert verdicts == {False, True}


class TestRestrict:
    def test_chain_example(self):
        # G = P4 with separation X = {0,1,2}, Y = {2,3}: restricted bags keep
        # only Y vertices plus any interior X∩Y vertices.
        G = path_graph(4)
        t = td(4, [-1, 0, 1], [{0, 1}, {1, 2}, {2, 3}])
        sep = Separation(frozenset({0, 1, 2}), frozenset({2, 3}))
        r = restrict_decomposition(G, t, sep)
        assert r.parents == t.parents
        assert r.bags == (frozenset({2}), frozenset({2}), frozenset({2, 3}))

    def test_invalid_input_rejected(self):
        G = path_graph(3)
        bad = td(3, [-1, 0], [{0, 1}, {2}])
        with pytest.raises(InvalidInputError):
            restrict_decomposition(
                G, bad, Separation(frozenset({0, 1}), frozenset({1, 2}))
            )

    def test_non_separation_rejected(self):
        G = path_graph(3)
        t = td(3, [-1, 0], [{0, 1}, {1, 2}])
        with pytest.raises(InvalidInputError):
            restrict_decomposition(
                G, t, Separation(frozenset({0}), frozenset({1, 2}))
            )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_restricted_decomposes_induced_subgraph(self, data):
        n = data.draw(st.integers(2, 9))
        seed = data.draw(st.integers(0, 10_000))
        G = gnp_graph(n, 0.35, seed)
        t = separation_tree(G, -(-n // 3), 2)
        from sepdecomp.separations import min_balanced_separation

        sep = min_balanced_separation(G)
        r = restrict_decomposition(G, t, sep)
        # the restriction decomposes G[Y]: check both properties against the
        # crossing-free edge set of the Y side
        from sepdecomp.graph import induced_subgraph

        H, new_to_old = induced_subgraph(G, sep.b_side)
        old_to_new = {o: k for k, o in new_to_old.items()}
        mapped = td(
            H.n, r.parents, [{old_to_new[v] for v in b} for b in r.bags]
        )
        ok, v = validate_decomposition(H, mapped)
        assert ok, v


class TestSeparationTree:
    def test_height_zero_single_bag(self):
        t = separation_tree(complete_graph(3), 1, 0)
        assert t.size == 1 and t.bags == (frozenset({0, 1, 2}),)

    def test_two_vertices_one_split(self):
        # K2 with a=1, h=1: root separates at {0}; children carry the bag
        G = complete_graph(2)
        t = separation_tree(G, 1, 1)
        assert t.parents == (-1, 0, 0)
        assert t.bags == (frozenset({0}), frozenset({0}), frozenset({0, 1}))
        ok, v = validate_decomposition(G, t)
        assert ok, v

    def test_path_nine_height_one(self):
        G = path_graph(9)
        t = separation_tree(G, 1, 1)
        ok, v = validate_decomposition(G, t)
        assert ok, v
        # one split suffices: each side has <= 6 = 9*(2/3) non-boundary vertices
        assert t.depths() == [0, 1, 1]

    @pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
    def test_depth_size_bounds(self, h):
        # |interior(x)| <= n*(2/3)^depth and |boundary(x)| <= depth*a, exactly
        G = path_graph(40)
        a = 1
        t = separation_tree(G, a, h)
        ok, v = validate_decomposition(G, t)
        assert ok, v
        depths = t.depths()
        bnds = t.boundaries()
        ints = t.interiors()
        for x in range(t.size):
            d = depths[x]
            assert 3 ** d * len(ints[x]) <= G.n * 2 ** d
            assert len(bnds[x]) <= d * a

    def test_child_boundary_is_parent_bag(self):
        G = gnp_graph(12, 0.3, 7)
        t = separation_tree(G, 4, 3)
        children = t.children()
        for x in range(t.size):
            for c in children[x]:
                assert t.bags[x] & t.bags[c] == t.bags[x] & t.subtree_unions()[c]
                assert t.boundaries()[c] <= t.bags[x]

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidInputError):
            separation_tree(path_graph(3), 1, -1)

    @pytest.mark.parametrize(
        "answer",
        [
            lambda H: (frozenset(range(H.n)), frozenset()),  # order 0, unbalanced
            lambda H: (frozenset({0}), frozenset({0})),  # not a separation
            lambda H: (frozenset({H.n}), frozenset(range(H.n))),  # vertex out of range
            lambda H: (frozenset(range(H.n)), frozenset(range(H.n))),  # order n > a
        ],
        ids=["unbalanced", "non_separation", "out_of_range", "order_above_a"],
    )
    @pytest.mark.parametrize("via_construct", [False, True])
    def test_out_of_contract_answer_rejected(self, answer, via_construct):
        # such an answer is an uncertified failure on the first call; the
        # unbalanced (V, {}) would give an A child equal to its parent, forever
        class Looped(Exception):
            pass

        calls = []

        def oracle(H):
            calls.append(H)
            if len(calls) > 1000:
                raise Looped
            return SeparatorOracleOutcome(Separation(*answer(H)), certified=True)

        G = path_graph(30)
        with pytest.raises(OracleFailureError) as ei:
            if via_construct:
                construct(G, 1, {0}, oracle=oracle)
            else:
                separation_tree(G, 1, 4, oracle)
        assert ei.value.certified is False and len(calls) == 1
        assert len(ei.value.witness) == calls[0].n
