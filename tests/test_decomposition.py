import random
import re

import pytest
from conftest import boundaries, interiors, random_separation, subtree_unions
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp.errors import InvalidInputError, OracleFailureError
from sepdecomp.constructor import construct
from sepdecomp.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_tree,
)
from sepdecomp.graph import Separation, build_graph, induced_subgraph, mask_of
from sepdecomp.separations import SeparatorOracleOutcome, make_oracle
from sepdecomp.decomposition import (
    RootedTreeDecomposition,
    _split,
    restrict_decomposition,
    separation_tree,
    validate_decomposition,
    width,
)


def td(host_n, parents, bags):
    return RootedTreeDecomposition(
        host_n, tuple(parents), tuple(frozenset(b) for b in bags)
    )


def depths(t):
    """Each node's distance from the root."""
    depth = [0] * t.size
    for x in t.preorder():
        if t.parents[x] != -1:
            depth[x] = depth[t.parents[x]] + 1
    return depth


def leaves(t):
    return [x for x, kids in enumerate(t.children()) if not kids]


def halves(H):
    """The sides of an order-1 balanced separation of a path H, as masks:
    the first half and the second, sharing the middle vertex."""
    k = H.n // 2
    return (1 << k + 1) - 1, H.full_mask() & -(1 << k)


class TestStructure:
    def test_root_and_children(self):
        t = td(3, [-1, 0, 0], [{0}, {0, 1}, {0, 2}])
        assert t.root == 0
        assert t.children() == [[1, 2], [], []]
        assert depths(t) == [0, 1, 1]
        assert t.preorder() == [0, 1, 2]
        assert leaves(t) == [1, 2]

    def test_two_roots_rejected(self):
        with pytest.raises(InvalidInputError):
            td(1, [-1, -1], [{0}, {0}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            td(1, [-1, 0], [{0}])

    def test_boundary_interior(self):
        # path decomposition of P4: bags {0,1},{1,2},{2,3} in a chain
        t = td(4, [-1, 0, 1], [{0, 1}, {1, 2}, {2, 3}])
        assert boundaries(t) == [frozenset(), {1}, {2}]
        assert interiors(t) == [{0, 1, 2, 3}, {2, 3}, {3}]

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

    def test_long_chain_listed_leaves_first(self):
        # node x hangs below node x + 1, so the first walk climbs the whole
        # chain to the root, which comes last
        n = 4000
        t = td(n + 1, [*range(1, n), -1], [{x, x + 1} for x in range(n)])
        assert validate_decomposition(path_graph(n + 1), t) == (True, [])

    def test_cycle_deep_in_long_chain(self):
        # a leaves-first chain of 3000 nodes runs into the cycle 3000 -> 3001
        # -> 3002 -> 3000; the root, 3003, stands apart
        n = 3000
        t = RootedTreeDecomposition.__new__(RootedTreeDecomposition)
        object.__setattr__(t, "host_n", 1)
        object.__setattr__(t, "parents", (*range(1, n + 2), n, -1))
        object.__setattr__(t, "bags", (frozenset({0}),) * (n + 4))
        assert validate_decomposition(build_graph(1, []), t) == (False, [f"cycle through node {n}"])


def tree_violations(td):
    """The first fault of the parent array (a parent out of range or a
    cycle), as validate_decomposition words it, or none."""
    n_nodes = td.size
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
                return [f"node {y}: parent {p} out of range"]
            if p in chain:
                return [f"cycle through node {p}"]
            y = p
        for y in reversed(chain):
            if depth[y] == -2:
                depth[y] = depth[td.parents[y]] + 1
    return []


def reference_validate(G, td):
    """validate_decomposition as it was: one scan over all bags per vertex
    and per edge.  The one-pass version must give the same verdict and the
    same violations, in the same order."""
    violations = tree_violations(td)
    if violations:
        return False, violations
    for b in td.bags:
        for v in b:
            if not (0 <= v < G.n):
                violations.append(f"bag vertex {v} out of range")
    for u, v in G.edges():
        if not any(u in b and v in b for b in td.bags):
            violations.append(f"edge ({u},{v}) uncovered")
    for v in range(G.n):
        holders = [x for x in range(td.size) if v in td.bags[x]]
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


def holder_list_validate(G, td):
    """validate_decomposition before bag masks: one pass over the bags lists
    the nodes holding each vertex; an edge is covered when a node holding its
    end with fewer holders holds the other end, and a vertex's holders form a
    subtree when all of them but one have their parent among them."""
    violations = tree_violations(td)
    if violations:
        return False, violations
    holders = [[] for _ in range(G.n)]
    for x, b in enumerate(td.bags):
        for v in b:
            if 0 <= v < G.n:
                holders[v].append(x)
            else:
                violations.append(f"bag vertex {v} out of range")
    for u, v in G.edges():
        nodes, other = (holders[u], v) if len(holders[u]) <= len(holders[v]) else (holders[v], u)
        if not any(other in td.bags[x] for x in nodes):
            violations.append(f"edge ({u},{v}) uncovered")
    for v, hs in enumerate(holders):
        if not hs:
            violations.append(f"vertex {v} in no bag")
        elif sum(td.parents[x] in hs for x in hs) != len(hs) - 1:
            violations.append(f"vertex {v} bags not connected")
    return not violations, violations


def tampered(G, t, rng):
    """Invalid copies of the decomposition t of G, one per kind of fault."""
    bags = [set(b) for b in t.bags]
    v = rng.randrange(G.n)
    yield raw_td(t.host_n, t.parents, [b - {v} for b in bags])  # v in no bag
    u, w = rng.choice(G.edges())
    yield raw_td(t.host_n, t.parents, [b - {w} if u in b else b for b in bags])  # uncovered
    holders = [x for x, b in enumerate(bags) if v in b]
    # a node with no holder of v at or next to it: adding v there splits v's bags
    far = [
        x for x in range(t.size)
        if x not in holders and t.parents[x] not in holders
        and all(t.parents[h] != x for h in holders)
    ]
    if far:
        x = rng.choice(far)
        yield raw_td(t.host_n, t.parents, [b | {v} if y == x else b for y, b in enumerate(bags)])
    for bad_vertex in (G.n, G.n + 7, -1, -4):
        x = rng.randrange(t.size)
        yield raw_td(t.host_n, t.parents, [b | {bad_vertex} if y == x else b for y, b in enumerate(bags)])
    if t.size > 1:
        x = rng.randrange(1, t.size) if t.parents[0] == -1 else 0
        for p in (t.size, -5, x):  # out of range twice, then a self-loop cycle
            parents = list(t.parents)
            parents[x] = p
            yield raw_td(t.host_n, parents, bags)


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
            # bags of up to 29 of 132 vertices: masks of several machine words
            (partial_ktree(132, 2), 3),
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

    def test_targeted_tampers_match_holder_lists(self):
        rng = random.Random(16)
        seen = set()
        for G, t in self.decompositions():
            assert holder_list_validate(G, t) == (True, [])
            for bad in tampered(G, t, rng):
                got = validate_decomposition(G, bad)
                assert not got[0]
                assert got == holder_list_validate(G, bad) == reference_validate(G, bad)
                seen.update(re.sub(r"[-\d]+", "#", s) for s in got[1])
        assert seen == {
            "vertex # in no bag",
            "edge (#,#) uncovered",
            "vertex # bags not connected",
            "bag vertex # out of range",
            "node #: parent # out of range",
            "cycle through node #",
        }


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

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 11), st.sampled_from((0.2, 0.4, 0.7)), st.integers(0, 10_000),
        st.integers(0, 3), st.randoms(use_true_random=False),
    )
    def test_matches_reference_rule(self, n, p, seed, h, rng):
        # (bag ∩ Y) ∪ (interior ∩ X ∩ Y), with the interiors of the tests'
        # reference helpers
        G = gnp_graph(n, p, seed)
        t = separation_tree(G, -(-n // 3), h)
        sep = random_separation(G, rng)
        X, Y = sep.a_side, sep.b_side
        expected = [(b & Y) | (i & X & Y) for b, i in zip(t.bags, interiors(t))]
        assert restrict_decomposition(G, t, sep) == td(G.n, t.parents, expected)


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
        assert depths(t) == [0, 1, 1]

    @pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
    def test_depth_size_bounds(self, h):
        # |interior(x)| <= n*(2/3)^depth and |boundary(x)| <= depth*a, exactly
        G = path_graph(40)
        a = 1
        t = separation_tree(G, a, h)
        ok, v = validate_decomposition(G, t)
        assert ok, v
        bnds = boundaries(t)
        ints = interiors(t)
        for x, d in enumerate(depths(t)):
            assert 3 ** d * len(ints[x]) <= G.n * 2 ** d
            assert len(bnds[x]) <= d * a

    def test_child_boundary_is_parent_bag(self):
        G = gnp_graph(12, 0.3, 7)
        t = separation_tree(G, 4, 3)
        children = t.children()
        for x in range(t.size):
            for c in children[x]:
                assert t.bags[x] & t.bags[c] == t.bags[x] & subtree_unions(t)[c]
                assert boundaries(t)[c] <= t.bags[x]

    def test_region_matches_induced_reference(self):
        # _split driven over a region R of G, from the root (R, {}) with
        # n = |R|, builds separation_tree of G[R] with its bags in G's ids;
        # a failure's witness is the same graph's vertex set, in G's ids
        def split_walk(G, region, a, h, oracle):
            parents, bags = [], []
            stack = [(mask_of(region), 0, -1)]
            while stack:
                vset, bnd, parent = stack.pop()
                parents.append(parent)
                split = _split(G, vset, bnd, len(region), a, h, oracle)
                bags.append(vset if split is None else split[0])
                if split is not None:
                    stack.append((split[2], split[0], len(bags) - 1))
                    stack.append((split[1], split[0], len(bags) - 1))
            return tuple(parents), tuple(bags)

        rng = random.Random(14)
        outcomes = set()
        for trial in range(40):
            if trial % 2:
                G, a = random_tree(40, seed=trial), 1
            else:
                G, a = gnp_graph(18, 0.25, seed=trial), 2
            region = frozenset(v for v in range(G.n) if rng.random() < 0.7)
            h = rng.randrange(5)
            H, to_g = induced_subgraph(G, region)
            oracle = make_oracle(a)
            try:
                ref = separation_tree(H, a, h, oracle)
            except OracleFailureError as exc:
                with pytest.raises(OracleFailureError) as ei:
                    split_walk(G, region, a, h, oracle)
                assert ei.value.witness == frozenset(to_g[v] for v in exc.witness)
                assert ei.value.certified == exc.certified
                outcomes.add("failure")
                continue
            parents, bags = split_walk(G, region, a, h, oracle)
            assert parents == ref.parents
            assert bags == tuple(mask_of(to_g[v] for v in b) for b in ref.bags)
            outcomes.add("tree" if len(bags) > 1 else "leaf")
        assert outcomes == {"failure", "tree", "leaf"}

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidInputError):
            separation_tree(path_graph(3), 1, -1)

    @pytest.mark.parametrize("G", [path_graph(3), path_graph(40)], ids=["leaf", "tree"])
    def test_negative_order_rejected(self, G):
        # not a certified failure: no order below 0 means anything
        with pytest.raises(InvalidInputError):
            separation_tree(G, -1, 4)

    @pytest.mark.parametrize(
        "answer",
        [
            lambda H: (H.full_mask(), 0),  # order 0, unbalanced
            lambda H: (1, 1),  # not a separation
            lambda H: (1 << H.n, H.full_mask()),  # vertex out of range
            lambda H: (H.full_mask(), H.full_mask()),  # order n > a
            lambda H: (halves(H)[0] | 1 << H.n + 3, halves(H)[1]),  # a bit above H's ids
            lambda H: (halves(H)[0], halves(H)[1] | -1 << H.n),  # a negative mask
        ],
        ids=["unbalanced", "non_separation", "out_of_range", "order_above_a", "bit_above_n",
             "negative_mask"],
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
            return SeparatorOracleOutcome(answer(H), certified=True)

        G = path_graph(30)
        with pytest.raises(OracleFailureError) as ei:
            if via_construct:
                construct(G, 1, {0}, oracle=oracle)
            else:
                separation_tree(G, 1, 4, oracle)
        assert ei.value.certified is False and len(calls) == 1
        assert len(ei.value.witness) == calls[0].n

    @pytest.mark.parametrize("via_construct", [False, True])
    def test_in_contract_mask_answer_accepted(self, via_construct):
        # the halves that the bit_above_n and negative_mask answers spoil
        # are accepted on their own, down to every leaf
        def oracle(H):
            return SeparatorOracleOutcome(halves(H), certified=True)

        G = path_graph(30)
        if via_construct:
            t = construct(G, 1, {0}, oracle=oracle).decomposition
        else:
            t = separation_tree(G, 1, 4, oracle)
        assert t.size > 1 and validate_decomposition(G, t) == (True, [])
