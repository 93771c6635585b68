import random

import pytest

from sepdecomp import kernels, separations
from sepdecomp.errors import (
    InvalidInputError,
    NotSeparatedError,
    PostconditionFailedError,
    SizeLimitExceededError,
)
from sepdecomp.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_tree,
)
from sepdecomp.constructor import construct
from sepdecomp.graph import (
    Separation,
    build_graph,
    components_in,
    induced_subgraph,
    is_balanced,
    is_separation,
    is_w_balanced,
    mask_vertices,
)
from sepdecomp.menger import separates
from sepdecomp.separations import (
    CANDIDATE_BUDGET,
    _bounded_candidates,
    _cutter_balanced_within,
    balanced_separation_within,
    make_oracle,
    min_balanced_separation,
    min_w_balanced_separation,
    separation_number,
    stz_separation,
)


class TestPostconditions:
    """A kernel that misses the always-existing (V, V) separation raises a
    typed error naming the function (a plain assert would vanish under -O)."""

    def test_min_balanced(self, monkeypatch):
        # the exhaustive search is the W = V case of the W-balanced kernel
        monkeypatch.setattr(kernels, "min_w_balanced_separation", lambda n, adj, w, k: None)
        with pytest.raises(PostconditionFailedError, match="^min_balanced_separation:"):
            min_balanced_separation(path_graph(4))

    def test_min_w_balanced(self, monkeypatch):
        monkeypatch.setattr(kernels, "min_w_balanced_separation", lambda n, adj, w, k: None)
        with pytest.raises(PostconditionFailedError, match="^min_w_balanced_separation:"):
            min_w_balanced_separation(path_graph(4), {0, 3})


class TestStzSeparation:
    def test_path(self):
        G = path_graph(5)
        sep = stz_separation(G, {0}, {2}, {4})
        assert sep.a_side == {0, 1, 2} and sep.b_side == {2, 3, 4}
        assert is_separation(G, sep)

    def test_not_separated(self):
        G = path_graph(3)
        with pytest.raises(NotSeparatedError):
            stz_separation(G, {0}, set(), {2})
        # a shared vertex outside Z is a length-0 S-T path
        with pytest.raises(NotSeparatedError):
            stz_separation(G, {1}, {0}, {1, 2})

    @pytest.mark.parametrize("seed", range(4))
    def test_raises_exactly_when_not_separates(self, seed):
        rng = random.Random(seed)
        G = gnp_graph(9, 0.25, seed)
        for _ in range(40):
            S, Z, T = (set(rng.sample(range(9), rng.randint(0, 4))) for _ in range(3))
            try:
                stz_separation(G, S, Z, T)
                raised = False
            except NotSeparatedError:
                raised = True
            assert raised == (not separates(G, Z, S, T)), (S, Z, T)

    def test_empty_s(self):
        G = path_graph(3)
        sep = stz_separation(G, set(), set(), {0, 1, 2})
        assert sep.a_side == frozenset() and sep.b_side == {0, 1, 2}


class TestMinBalancedSeparation:
    def test_k1(self):
        sep = min_balanced_separation(complete_graph(1))
        assert sep.order == 1  # ({0},{0}) is the only balanced separation

    def test_path_order_one(self):
        sep = min_balanced_separation(path_graph(9))
        assert sep.order == 1
        assert is_balanced(path_graph(9), sep)

    def test_cycle_order_two(self):
        assert min_balanced_separation(cycle_graph(9)).order == 2

    def test_complete(self):
        # K_n only separates via (A, B) with A or B = V; order >= ceil(n/3)
        assert min_balanced_separation(complete_graph(6)).order == 2

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceededError):
            min_balanced_separation(path_graph(25))

    def test_deterministic_tiebreak(self):
        a = min_balanced_separation(path_graph(12))
        b = min_balanced_separation(path_graph(12))
        assert a == b


class TestSeparationNumber:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_complete_graphs(self, n):
        assert separation_number(complete_graph(n)) == -(-n // 3)

    def test_paths_and_trees(self):
        assert separation_number(path_graph(10)) == 1
        assert separation_number(random_tree(11, seed=4)) == 1

    def test_cycles(self):
        assert separation_number(cycle_graph(3)) == 1
        assert separation_number(cycle_graph(8)) == 2

    def test_empty_and_singleton(self):
        assert separation_number(build_graph(0, [])) == 0
        assert separation_number(build_graph(1, [])) == 1

    def test_monotone_under_subgraphs(self):
        G = gnp_graph(9, 0.4, 5)
        from sepdecomp.graph import induced_subgraph

        full = separation_number(G)
        for drop in range(G.n):
            H, _ = induced_subgraph(G, set(range(G.n)) - {drop})
            assert separation_number(H) <= full


class TestBalancedSeparationWithin:
    def test_exact_success_is_certified(self):
        out = balanced_separation_within(path_graph(10), 1)
        assert out.found and out.certified
        assert out.separation.order <= 1

    def test_exact_failure_is_certified(self):
        out = balanced_separation_within(cycle_graph(10), 1)
        assert not out.found and out.certified

    def test_bounded_order_stays_exact_on_large_graphs(self):
        # n = 200 far exceeds the subset limit, but order <= 1 is enumerable
        out = balanced_separation_within(path_graph(200), 1)
        assert out.found and out.certified
        assert is_balanced(path_graph(200), out.separation)

    def test_negative_order_rejected(self):
        # not a certified failure: no order below 0 means anything
        with pytest.raises(InvalidInputError):
            balanced_separation_within(path_graph(10), -1)

    @pytest.mark.parametrize("a", [1.5, 1.0, True])
    @pytest.mark.parametrize(
        "where, call",
        [("balanced_separation_within", lambda a: balanced_separation_within(path_graph(10), a)),
         ("make_oracle", make_oracle)],
        ids=["balanced_separation_within", "make_oracle"],
    )
    def test_non_integer_order_rejected(self, where, call, a):
        with pytest.raises(InvalidInputError) as ei:
            call(a)
        assert str(ei.value) == f"{where}: a must be an integer >= 0, got {a!r}"

    def test_heuristic_mode_finds_trivial(self):
        G = gnp_graph(40, 0.5, 11)
        a = -(-G.n // 3)
        out = _cutter_balanced_within(G, a)
        assert out.found
        assert is_balanced(G, out.separation)
        assert out.separation.order <= a

    @pytest.mark.parametrize(
        "G, a, flows, found",
        [(cycle_graph(40), 2, 14, True), (cycle_graph(60), 2, 20, True),
         (grid_graph(6, 8), 3, 23, False)],
        ids=["cycle40", "cycle60", "grid6x8-miss"],
    )
    def test_cutter_runs_each_ball_size_once(self, monkeypatch, G, a, flows, found):
        # below 100 vertices two ball percentages can round to one size; each
        # size runs one flow (the repeats made 35, 34 and 49 flows here)
        sizes = []
        real = separations.disjoint_paths

        def counted(H, S, T, cap):
            sizes.append(len(S))
            return real(H, S, T, cap)

        monkeypatch.setattr(separations, "disjoint_paths", counted)
        assert _cutter_balanced_within(G, a).found == found
        assert len(sizes) == flows and sizes == sorted(set(sizes))

    @pytest.mark.parametrize(
        "G, a", [(path_graph(60), 1), (partial_ktree(120, 2, seed=3), 3)], ids=["path60", "ktree2"]
    )
    def test_exact_oracle_builds_no_neighbour_lists(self, G, a):
        # the exact search runs on the masks alone, so no call gives the graph
        # it is handed neighbour lists: neither a copy handed to it directly
        # nor any graph construct hands it, G itself included (whose lists
        # construct's copier may have built before the call)
        H, _ = induced_subgraph(G, range(1, G.n))
        assert _bounded_candidates(H.n, a) <= CANDIDATE_BUDGET
        assert balanced_separation_within(H, a).found
        assert "adjacency" not in H.__dict__
        handed = []  # (graph, had lists before the call, has them after)

        def oracle(copy):
            before = "adjacency" in copy.__dict__
            outcome = balanced_separation_within(copy, a)
            handed.append((copy, before, "adjacency" in copy.__dict__))
            return outcome

        construct(G, a, {0}, oracle=oracle)
        assert handed and all(_bounded_candidates(c.n, a) <= CANDIDATE_BUDGET for c, _, _ in handed)
        assert all(after == before for _, before, after in handed)
        # the T_Y root's vertex set is the component of W = {0}: with G
        # connected, the oracle is handed G itself, not a copy of it
        connected = components_in(G.adj_masks, G.full_mask()) == [G.full_mask()]
        assert (handed[0][0] is G) == connected
        assert connected == (G.n == 60)  # path60 is connected, the 2-tree is not


class TestMinWBalanced:
    def test_w_balance_respected(self):
        G = path_graph(12)
        W = {0, 5, 11}
        sep = min_w_balanced_separation(G, W)
        assert is_w_balanced(G, sep, W)
        assert sep.order == 1

    def test_w_equals_v_matches_balanced(self):
        G = gnp_graph(9, 0.3, 3)
        assert min_w_balanced_separation(G, range(G.n)) == min_balanced_separation(G)


class TestOracle:
    def test_oracle_counts_and_validates(self):
        oracle = make_oracle(1)
        out = oracle(path_graph(30))
        assert out.found and is_balanced(path_graph(30), out.separation)

    def test_oracle_failure_certified_when_exact(self):
        out = make_oracle(1)(cycle_graph(12))
        assert not out.found and out.certified

    @pytest.mark.parametrize(
        "G, a",
        [
            (path_graph(30), 1),
            (cycle_graph(40), 2),
            (partial_ktree(60, 2, seed=2), 3),
            (partial_ktree(150, 3, seed=1), 4),
        ],
        ids=["path", "cycle", "ktree_exact", "ktree_cutter"],
    )
    def test_separation_derived_from_sides(self, G, a):
        # the answer is its sides, masks in G's ids; found and separation
        # read them, and the separation is balanced of order <= a
        out = make_oracle(a)(G)
        a_mask, b_mask = out.sides
        assert out.found and out.certified
        assert out.separation == Separation(
            frozenset(mask_vertices(a_mask)), frozenset(mask_vertices(b_mask))
        )
        assert is_balanced(G, out.separation) and out.separation.order <= a

    def test_no_sides_no_separation(self):
        out = make_oracle(1)(cycle_graph(12))
        assert out.sides is None and out.separation is None and not out.found

