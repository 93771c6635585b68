import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp.constructor import RecursionStats, construct
from sepdecomp.decomposition import RootedTreeDecomposition
from sepdecomp.errors import (
    DuplicateEdgeError,
    InvalidInputError,
    InvalidSeparationError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from sepdecomp.generators import cycle_graph, gnp_graph, grid_graph, path_graph, random_tree
from sepdecomp.graph import (
    Graph,
    Record,
    Separation,
    build_graph,
    components_in,
    induced_subgraph,
    is_balanced,
    is_separation,
    is_w_balanced,
    mask_vertices,
)
from sepdecomp.menger import disjoint_paths
from sepdecomp.separations import make_oracle
from sepdecomp.verification import InstanceSpec, SuiteConfig, check_zw_inequality, treewidth_exact
from sepdecomp.wsequence import build_w_sequence


def graphs(max_n=9):
    @st.composite
    def _graphs(draw):
        n = draw(st.integers(1, max_n))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in possible if draw(st.booleans())]
        return build_graph(n, edges)

    return _graphs()


class TestBuildGraph:
    def test_basic(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        assert G.n == 3 and G.m == 2
        assert G.has_edge(0, 1) and G.has_edge(1, 0) and not G.has_edge(0, 2)
        assert G.neighbors(1) == (0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        # either endpoint, and the first one out of range is named
        for edge, named in [((0, 2), 2), ((2, 0), 2), ((-1, 5), -1)]:
            with pytest.raises(VertexOutOfRangeError, match=f"^vertex {named} out of range for n=2$"):
                build_graph(2, [edge])

    def test_empty_graph(self):
        G = build_graph(0, [])
        assert G.n == 0 and G.m == 0

    @given(graphs(max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_is_the_sorted_lists_given(self, G, rng):
        # the masks are the graph; the lists are derived from them on first
        # use and equal the sorted lists of the edges build_graph was given
        edges = G.edges()
        rng.shuffle(edges)
        H = build_graph(G.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        assert "adjacency" not in H.__dict__
        lists = [[] for _ in range(G.n)]
        for u, v in edges:
            lists[u].append(v)
            lists[v].append(u)
        assert H.adjacency == tuple(tuple(sorted(a)) for a in lists)
        assert H.m == len(edges)


class TestInducedSubgraph:
    def test_relabels_in_sorted_order(self):
        G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        H, new_to_old = induced_subgraph(G, {1, 3})
        assert H.n == 2 and H.m == 0
        assert new_to_old == {0: 1, 1: 3}

    def test_keeps_internal_edges(self):
        G = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        H, new_to_old = induced_subgraph(G, {0, 1, 3})
        assert H.m == 2  # 0-1 and 0-3 survive

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_full_subgraph_is_identity(self, G):
        H, new_to_old = induced_subgraph(G, range(G.n))
        assert H.adjacency == G.adjacency
        assert all(new_to_old[v] == v for v in range(G.n))

    def test_matches_build_graph_over_relabelled_edges(self):
        rng = random.Random(16)
        hosts = [
            gnp_graph(n, p, seed)
            for n, p, seed in ((1, 0.5, 0), (12, 0.3, 1), (40, 0.1, 2), (70, 0.05, 3))
        ]
        hosts += [random_tree(n, seed=n) for n in (2, 30, 90)]
        hosts += [grid_graph(1, 5), grid_graph(4, 4), grid_graph(7, 9)]
        for G in hosts:
            subsets = [set(), set(range(G.n))]
            subsets += [set(rng.sample(range(G.n), rng.randint(1, G.n))) for _ in range(10)]
            for S in subsets:
                H, new_to_old = induced_subgraph(G, S)
                old_ids = sorted(S)
                new_of_old = {old: new for new, old in enumerate(old_ids)}
                ref = build_graph(
                    len(old_ids),
                    [(new_of_old[u], new_of_old[v]) for u, v in G.edges() if u in S and v in S],
                )
                assert (H.n, H.adjacency, H.adj_masks) == (ref.n, ref.adjacency, ref.adj_masks)
                assert new_to_old == dict(enumerate(old_ids))

    def test_out_of_range_rejected(self):
        G = grid_graph(3, 3)
        for S in ({0, 9}, {-1}, {4, -3}, {100}):
            with pytest.raises(VertexOutOfRangeError):
                induced_subgraph(G, S)


class TestComponents:
    def test_split(self):
        G = build_graph(5, [(0, 1), (3, 4)])
        assert components_in(G.adj_masks, G.full_mask()) == [0b11, 0b100, 0b11000]


class TestSeparation:
    def test_valid(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        sep = Separation(frozenset({0, 1}), frozenset({1, 2}))
        assert is_separation(G, sep)
        assert sep.order == 1

    def test_crossing_edge_invalid(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_separation(G, Separation(frozenset({0, 1}), frozenset({1, 2})))

    def test_cover_required(self):
        G = build_graph(3, [])
        assert not is_separation(G, Separation(frozenset({0}), frozenset({1})))

    def test_balanced(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        assert is_balanced(G, Separation(frozenset({0, 1}), frozenset({1, 2})))
        G6 = build_graph(6, [(i, i + 1) for i in range(5)])
        # one strict side of size 5 > 2n/3 = 4
        assert not is_balanced(G6, Separation(frozenset({0}), frozenset(range(6))))

    def test_balanced_requires_separation(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidSeparationError):
            is_balanced(G, Separation(frozenset({0, 1}), frozenset({1, 2})))

    def test_w_balanced(self):
        G = build_graph(6, [(i, i + 1) for i in range(5)])
        sep = Separation(frozenset({0, 1, 2, 3}), frozenset({3, 4, 5}))
        # W = {0, 5}: one vertex on each strict side, 1 <= 2/3*2
        assert is_w_balanced(G, sep, {0, 5})
        # W = {0, 1}: both on the A side, 2 > 2/3*2
        assert not is_w_balanced(G, sep, {0, 1})

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_trivial_separation_always_balanced(self, G):
        k = -(-G.n // 3)
        sep = Separation(frozenset(range(k)), frozenset(range(G.n)))
        assert is_separation(G, sep)
        assert is_balanced(G, sep)


@st.composite
def gnp_with_sides(draw):
    """A gnp graph on n <= 10 vertices, a side pair (A, B) and a set W.  Half
    the pairs are separations built from a separator and its components,
    the rest are arbitrary subsets, mostly not separations."""
    n = draw(st.integers(1, 10))
    G = gnp_graph(n, draw(st.sampled_from((0.2, 0.4, 0.7))), draw(st.integers(0, 1 << 20)))
    subsets = st.frozensets(st.integers(0, n - 1), max_size=n)
    W = draw(subsets)
    if draw(st.booleans()):
        return G, draw(subsets), draw(subsets), W
    Z = draw(subsets)
    A, B = set(Z), set(Z)
    rest = G.full_mask() & ~sum(1 << v for v in Z)
    for c in components_in(G.adj_masks, rest):
        (A if draw(st.booleans()) else B).update(mask_vertices(c))
    return G, frozenset(A), frozenset(B), W


def reference_strict_sides(G, A, B):
    """The strict sides of (A, B) as frozensets, or None for a non-separation."""
    if A | B != frozenset(range(G.n)):
        return None
    if any(G.has_edge(u, v) for u in A - B for v in B - A):
        return None
    return A - B, B - A


class TestSeparationChecksAgainstReference:
    @given(gnp_with_sides())
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts(self, case):
        G, A, B, W = case
        sep = Separation(A, B)
        sides = reference_strict_sides(G, A, B)
        assert is_separation(G, sep) == (sides is not None)
        if sides is None:
            with pytest.raises(InvalidSeparationError):
                is_balanced(G, sep)
            with pytest.raises(InvalidSeparationError):
                is_w_balanced(G, sep, W)
            return
        assert is_balanced(G, sep) == all(3 * len(s) <= 2 * G.n for s in sides)
        assert is_w_balanced(G, sep, W) == all(3 * len(s & W) <= 2 * len(W) for s in sides)

    @given(gnp_with_sides(), st.sampled_from(("a", "b", "w")), st.data())
    @settings(max_examples=150, deadline=None)
    def test_out_of_range_vertex_raises(self, case, where, data):
        G, A, B, W = case
        bad = data.draw(st.one_of(st.integers(-50, -1), st.integers(G.n, G.n + 50)))
        A, B, W = (s | {bad} if where == key else s for s, key in ((A, "a"), (B, "b"), (W, "w")))
        sep = Separation(A, B)
        checks = [lambda: is_w_balanced(G, sep, W)]
        if where != "w":
            checks += [lambda: is_separation(G, sep), lambda: is_balanced(G, sep)]
        for check in checks:
            with pytest.raises(VertexOutOfRangeError):
                check()


# one maker per hashable record type; each call builds a fresh, equal record
RECORD_MAKERS = {
    "Graph": lambda: build_graph(3, [(0, 1), (1, 2)]),
    "Separation": lambda: Separation(frozenset({0, 1}), frozenset({1, 2})),
    "RootedTreeDecomposition": lambda: RootedTreeDecomposition(
        3, (-1, 0), (frozenset({0, 1}), frozenset({1, 2}))
    ),
    "PathResult": lambda: disjoint_paths(path_graph(4), {0}, {3}, 2),
    "SeparatorOracleOutcome": lambda: make_oracle(1)(path_graph(6)),
    "WSequence": lambda: build_w_sequence(path_graph(6), {0, 2}, 2),
    "TreewidthResult": lambda: treewidth_exact(cycle_graph(5)),
    "ZWCheck": lambda: check_zw_inequality(
        path_graph(8), build_w_sequence(path_graph(8), {0}, 1),
        Separation(frozenset(range(4)), frozenset(range(3, 8))),
    ),
}

# one maker per record type, hashable or not
RECORD_SAMPLES = {
    **RECORD_MAKERS,
    "ConstructReport": lambda: construct(path_graph(8), 1, {0}),
    "InstanceSpec": lambda: InstanceSpec("path", {"n": 5}, a=1),
    "SuiteConfig": lambda: SuiteConfig((InstanceSpec("cycle", {"n": 6}),), seed=2),
}


class TestRecord:
    """The immutable result types are plain slotted classes on graph.Record."""

    @pytest.mark.parametrize("name", sorted(RECORD_MAKERS))
    def test_value_semantics(self, name):
        a, b = RECORD_MAKERS[name](), RECORD_MAKERS[name]()
        assert type(a).__name__ == name and a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        text = repr(a)
        assert text.startswith(f"{name}(")
        assert all(f"{f}={getattr(a, f)!r}" in text for f in a._fields)
        for f in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, f, None)
            with pytest.raises(AttributeError):
                delattr(a, f)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b

    def test_fields_decide_equality(self):
        G = Graph(2, (0b10, 0b01))
        assert G == build_graph(2, [(0, 1)]) and G != Graph(2, (0, 0))
        assert Separation(frozenset({0}), frozenset({1})) != Separation(frozenset({1}), frozenset({0}))
        # same values, different record types
        sep = Separation(2, (0b10, 0b01))
        assert G != sep and sep != G and G._values() == sep._values()
        assert len({G, sep}) == 2

    def test_every_record_is_slotted(self):
        records = Record.__subclasses__()
        assert {cls.__name__ for cls in records} >= set(RECORD_MAKERS) | {
            "ConstructReport", "InstanceSpec", "SuiteConfig"
        }
        for cls in records:
            assert cls.__slots__ == cls._fields or cls is Graph, cls
        assert Graph.__slots__ == (*Graph._fields, "__dict__")
        with pytest.raises(AttributeError):
            RecursionStats().extra = 1

    @pytest.mark.parametrize("name", sorted(RECORD_SAMPLES))
    def test_binds_positional_keyword_and_mixed(self, name):
        rec = RECORD_SAMPLES[name]()
        cls, values = type(rec), rec._values()
        named = dict(zip(rec._fields, values))
        k = len(values) // 2
        mixed = cls(*values[:k], **{f: named[f] for f in rec._fields[k:]})
        assert cls(*values) == cls(**named) == mixed == rec
        assert [getattr(mixed, f) for f in rec._fields] == list(values)

    def test_samples_cover_every_record(self):
        assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORD_SAMPLES)

    def test_parameters_in_order_with_defaults(self):
        # the constructors' public signatures: parameter order, names, defaults
        assert {cls.__name__: (cls._fields, cls._defaults) for cls in Record.__subclasses__()} == {
            "Graph": (("n", "adj_masks"), {}),
            "Separation": (("a_side", "b_side"), {}),
            "RootedTreeDecomposition": (("host_n", "parents", "bags"), {}),
            "PathResult": (("paths", "separator"), {}),
            "SeparatorOracleOutcome": (("sides", "certified"), {}),
            "WSequence": (("deltas", "width_w", "z_set", "links"), {}),
            "ConstructReport": (("decomposition", "a_used", "width", "bound_num", "bound_den",
                                 "certificate_node", "recursion_stats"), {}),
            "TreewidthResult": (("value", "elimination_order", "decomposition"), {}),
            "ZWCheck": (("holds", "lhs", "rhs", "secondary_holds", "secondary_rhs"), {}),
            "InstanceSpec": (("kind", "params", "a", "graph_id"), {"a": None, "graph_id": None}),
            "SuiteConfig": (("instances", "seed"), {"seed": 0}),
        }

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1, 2, 3), {}, "takes 2 fields but 3 were given"),
        ((1,), {}, "missing field 'b_side'"),
        ((), {"b_side": 2}, "missing field 'a_side'"),
        ((1,), {"a_side": 2}, "got field 'a_side' twice"),
        ((1, 2), {"b_side": 2}, "got field 'b_side' twice"),
        ((1, 2), {"c_side": 3}, "got an unknown field 'c_side'"),
        ((), {"a_side": 1, "bside": 2}, "got an unknown field 'bside'"),
    ])
    def test_bad_arguments_raise_naming_the_record(self, args, kwargs, message):
        with pytest.raises(TypeError, match=re.escape(f"Separation() {message}")):
            Separation(*args, **kwargs)

    def test_defaults_fill_left_out_fields(self):
        spec = InstanceSpec("path", {"n": 5})
        assert (spec.a, spec.graph_id) == (None, None)
        assert InstanceSpec("path", {}, graph_id="p") == InstanceSpec("path", {}, None, "p")
        assert InstanceSpec(kind="path", params={}, a=2).a == 2
        assert SuiteConfig((spec,)).seed == 0
        assert SuiteConfig(instances=(spec,), seed=3) == SuiteConfig((spec,), 3)
        with pytest.raises(TypeError, match=re.escape("InstanceSpec() missing field 'params'")):
            InstanceSpec("path", a=1)
        with pytest.raises(TypeError, match=re.escape("Graph() missing field 'adj_masks'")):
            Graph(2)

    def test_unhashable_field_makes_an_unhashable_record(self):
        spec = InstanceSpec("path", {"n": 5}, a=1)
        assert spec == InstanceSpec("path", {"n": 5}, a=1)
        with pytest.raises(TypeError):
            hash(spec)

    def test_adjacency_cached_once(self):
        G, H = gnp_graph(12, 0.4, 3), gnp_graph(12, 0.4, 3)
        assert "adjacency" not in G.__dict__
        first = G.adjacency
        assert G.__dict__ == {"adjacency": first}
        assert G.adjacency is first and G.neighbors(0) is first[0]
        # the cache takes no part in equality, hashing or repr
        assert G == H and hash(G) == hash(H) and repr(G) == repr(H)

    def test_tree_decomposition_checks_its_shape(self):
        bags = (frozenset({0, 1}), frozenset({1, 2}))
        with pytest.raises(InvalidInputError, match="length mismatch"):
            RootedTreeDecomposition(3, (-1,), bags)
        with pytest.raises(InvalidInputError, match="exactly one root, found 2"):
            RootedTreeDecomposition(3, (-1, -1), bags)
        with pytest.raises(InvalidInputError, match="exactly one root, found 0"):
            RootedTreeDecomposition(3, (1, 0), bags)
