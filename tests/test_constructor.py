import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from sepdecomp import constructor, decomposition, graph
from sepdecomp.constructor import (
    CONSTANTS,
    _useful_w_balanced,
    construct,
    construct_theorem2,
)
from sepdecomp.errors import (
    InvalidInputError,
    OracleFailureError,
    PostconditionFailedError,
    RecursionGuardError,
    SizeLimitExceededError,
    WBalancedUnavailableError,
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
from sepdecomp.graph import build_graph, components_in, induced_subgraph, mask_of, mask_vertices
from sepdecomp.decomposition import validate_decomposition, width
from sepdecomp.kernels import separators
from sepdecomp.pace import write_td
from sepdecomp.separations import (
    SeparatorOracleOutcome,
    _cutter_balanced_within,
    make_oracle,
    separation_number,
)


def cutter_oracle(a):
    """The cutter alone, as an oracle: what construct runs past the exact
    search's candidate budget."""
    return lambda H: _cutter_balanced_within(H, a)


class TestConstants:
    def test_exact_values(self):
        assert CONSTANTS.h == 4
        assert CONSTANTS.t == Fraction(3888, 139)
        assert CONSTANTS.c == Fraction(7915, 139)
        # t = 4h / (1 - (13/6)(2/3)^h) and c = 2t + 1
        assert CONSTANTS.t == 16 / (1 - Fraction(13, 6) * Fraction(16, 81))
        assert CONSTANTS.c == 2 * CONSTANTS.t + 1

    def test_not_settable(self):
        with pytest.raises(AttributeError):
            CONSTANTS.h = 5
        with pytest.raises(TypeError):
            type(CONSTANTS)(h=5)

    def test_cell_bound_matches_fraction_formula(self):
        # the integer test against the rational bound it replaces:
        # count <= (13/6)*t*a*(2/3)^d + 3*d*a, at the bound and one either side
        for d in range(13):
            for a in range(1, 41):
                rhs = Fraction(13, 6) * CONSTANTS.t * a * Fraction(2, 3) ** d + 3 * d * a
                at = rhs.numerator // rhs.denominator
                for count in (at - 1, at, at + 1):
                    assert CONSTANTS.cell_bound_ok(count, d, a) == (count <= rhs), (d, a, count)

    def test_base_case_boundary(self):
        # n < (3888/139)*a flips between n=27 and n=28 at a=1
        assert CONSTANTS.base_case(27, 1)
        assert not CONSTANTS.base_case(28, 1)

    def test_width_bound_strict(self):
        # 139*(w+1) < 7915*a; at a=139 equality w+1=7915 must count as failure
        assert CONSTANTS.width_bound_ok(7913, 139)
        assert not CONSTANTS.width_bound_ok(7914, 139)


class TestConstruct:
    def _check(self, G, a, W={0}):
        rep = construct(G, a, W)
        ok, v = validate_decomposition(G, rep.decomposition)
        assert ok, v
        assert 139 * (rep.width + 1) < 7915 * a
        assert frozenset(W) <= rep.decomposition.bags[rep.certificate_node]
        return rep

    def test_base_case_single_bag(self):
        rep = self._check(path_graph(10), 1)
        assert rep.decomposition.size == 1
        assert rep.recursion_stats.base_cases == 1

    def test_path_100(self):
        rep = self._check(path_graph(100), 1)
        assert rep.width < 7915 / 139  # < 56.9...

    def test_cycle_100(self):
        self._check(cycle_graph(100), 2)

    def test_tree_150(self):
        self._check(random_tree(150, seed=3), 1)

    def test_grid(self):
        self._check(grid_graph(5, 8), 5)

    def test_off_center_w(self):
        self._check(path_graph(120), 1, W={60})

    def test_multi_vertex_w(self):
        self._check(path_graph(90), 1, W={0, 44, 89})

    def test_random_graphs(self):
        for seed in range(5):
            G = gnp_graph(30, 0.15, seed)
            a = -(-G.n // 3)
            self._check(G, a)

    def test_deterministic(self):
        G = gnp_graph(60, 0.08, 2)
        r1 = construct(G, 20, {0})
        r2 = construct(G, 20, {0})
        assert r1.decomposition == r2.decomposition

    def test_ratio(self):
        rep = construct(path_graph(50), 1, {0})
        assert Fraction(rep.width, rep.a_used) < Fraction(7915, 139)
        assert Fraction(rep.bound_num, rep.bound_den) == Fraction(7915, 139)

    def test_a_too_small_fails(self):
        # sep-number of the 6x6 grid exceeds 1, so a=1 must fail loudly
        with pytest.raises(OracleFailureError):
            construct(grid_graph(6, 6), 1, {0})

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            construct(path_graph(5), 0, {0})
        with pytest.raises(InvalidInputError):
            construct(path_graph(5), 1, set())
        with pytest.raises(InvalidInputError):
            # |W| = 29 > t*a = 27.97 for a = 1
            construct(path_graph(40), 1, set(range(29)))

    def test_assertion_log_populated(self):
        # the claim checks always run: each construct that recurses counts
        # checks of the three claims the width bound rests on
        for G, a in ((path_graph(100), 1), (cycle_graph(120), 2), (random_tree(150, seed=3), 1)):
            claims = construct(G, a, {0}).recursion_stats.claims
            assert {"cell_bound", "leaf_interface", "treewidth_bound"} <= set(claims), claims
            assert all(count > 0 for count in claims.values())

    @pytest.mark.parametrize("G,a", [(path_graph(400), 1), (cycle_graph(300), 2)])
    def test_every_induced_copy_feeds_a_flow_or_an_oracle(self, G, a, monkeypatch):
        # one copy per recursing frame (its W-sequence flows) and one per
        # oracle call; T_Y is built in G's ids, with no copy of G[W_top]
        calls = []
        real = graph._induced

        def counted(H, mask):
            calls.append(mask)
            return real(H, mask)

        for mod in (graph, constructor, decomposition):
            monkeypatch.setattr(mod, "_induced", counted)
        stats = construct(G, a, {0}).recursion_stats
        assert stats.oracle_calls > 0
        assert len(calls) == stats.oracle_calls + stats.construct_calls - stats.base_cases

    @pytest.mark.parametrize("G,a", [(path_graph(400), 1), (cycle_graph(300), 2),
                                     (random_tree(300, seed=2), 1)])
    def test_one_component_search_per_frame(self, G, a, monkeypatch):
        # a frame's tail searches each component of its copy minus Z once,
        # and the (S, Z, T) split reads that list instead of searching again
        searches, frames = [], []
        real_search, real_tail = graph.component_mask, constructor._sequence_tail

        def counted(*args):
            searches.append(args)
            return real_search(*args)

        def tail(H, w):
            before = len(searches)
            out = real_tail(H, w)
            frames.append((w.bit_count(), len(searches) - before, len(out[4])))
            return out

        monkeypatch.setattr(graph, "component_mask", counted)
        monkeypatch.setattr(constructor, "_sequence_tail", tail)
        construct(G, a, {0})
        assert any(size == 1 for size, _, _ in frames)
        assert all(ran == found for _, ran, found in frames), frames

    def test_invalid_output_raises(self, monkeypatch):
        # a T_Y root bag missing a vertex no longer decomposes G; construct's
        # own validation of its output catches it
        real = constructor._split
        calls = []

        def corrupt(*args):
            split = real(*args)
            if split is not None and not calls:
                bag, A, B = split
                split = (bag & ~(1 << bag.bit_length() - 1), A, B)
            calls.append(split)
            return split

        monkeypatch.setattr(constructor, "_split", corrupt)
        with pytest.raises(PostconditionFailedError, match="^construct: invalid decomposition"):
            construct(path_graph(400), 1, {0})
        assert calls[0] is not None

    @pytest.mark.parametrize(
        "G,a,W",
        [
            (path_graph(400), 1, {0}),
            (cycle_graph(300), 2, {0}),
            (partial_ktree(120, 2, seed=1), 3, {0, 1}),
        ],
        ids=["path400", "cycle300", "ktree2"],
    )
    def test_one_cell_bound_check_per_separation_tree_node(self, G, a, W):
        # each T_Y node is one cell on the work stack, and each cell checks
        # the cell bound once
        stats = construct(G, a, W).recursion_stats
        assert stats.separation_tree_nodes > 0
        assert stats.claims["cell_bound"] == stats.separation_tree_nodes

    def test_treewidth_violation_names_the_bag(self, monkeypatch):
        # every T_Y bag is checked on its own; the first one checked is the
        # root bag, node 0
        G = path_graph(400)
        root_bag = construct(G, 1, {0}).decomposition.bags[0]

        class NoBagFits(constructor.Constants):
            def width_bound_ok(self, w, a):
                return False

        monkeypatch.setattr(constructor, "CONSTANTS", NoBagFits())
        with pytest.raises(PostconditionFailedError) as ei:
            construct(G, 1, {0})
        assert str(ei.value) == (
            "construct: claim treewidth_bound violated: "
            f"T_Y bag of {len(root_bag)} vertices vs a=1"
        )

    @pytest.mark.parametrize(
        "name, W, change, message",
        [
            # W_l shrunk to W: V - W_l meets W's component, which Z = {} leaves whole
            ("_sequence_tail", {0}, lambda H, w, tail: (w, *tail[1:]),
             "z_separates violated: a path from V - W_l to W misses Z"),
            # Z dropped, with the components of G it leaves
            ("_sequence_tail", {0, 100, 200},
             lambda H, w, tail: (*tail[:2], 0, tail[3], components_in(H.adj_masks, H.full_mask())),
             "z_separates violated: a path from V - W_l to W misses Z"),
            # Z = W, with the components of G - W
            ("_sequence_tail", {0},
             lambda H, w, tail: (*tail[:2], w, tail[3], components_in(H.adj_masks, H.full_mask() & ~w)),
             "z_lt_w violated: |Z|=1 |W|=1"),
            # the X side takes vertex 0 of the Y side
            ("_stz_sides", {0}, lambda comps, s, z, t, sides: (sides[0] | 1, sides[1]),
             "xy_order violated: order=1"),
            # W_top shrunk to W
            ("_sequence_tail", {0}, lambda H, w, tail: (tail[0], w, *tail[2:]),
             "y_in_wtop violated: |Y\\W_top|=399"),
        ],
        ids=["z_separates_one_w", "z_separates_wide_w", "z_lt_w", "xy_order", "y_in_wtop"],
    )
    def test_frame_claim_violation_message(self, name, W, change, message, monkeypatch):
        # each claim on the root frame's (S, Z, T) split trips on its own
        # when the routine `name` answers wrongly there, and names itself
        real, calls = getattr(constructor, name), []

        def tampered(*args):
            calls.append(args)
            out = real(*args)
            return change(*args, out) if len(calls) == 1 else out

        monkeypatch.setattr(constructor, name, tampered)
        with pytest.raises(PostconditionFailedError) as ei:
            construct(path_graph(400), 1, W)
        assert str(ei.value) == f"construct: claim {message}"
        assert len(calls) == 1

    @pytest.mark.parametrize("a", [1.5, 2.0, "2", None, True])
    def test_non_integer_a_rejected(self, a):
        with pytest.raises(InvalidInputError) as ei:
            construct(path_graph(80), a, {0})
        assert str(ei.value) == f"construct: a must be an integer >= 1, got {a!r}"

    @pytest.mark.parametrize(
        "G, a, W, lhs",
        [(path_graph(400), 1, {0, 100, 200}, 4), (partial_ktree(120, 2, seed=3), 3, {0, 1, 2}, 3)],
        ids=["path400", "ktree2"],
    )
    def test_cell_bound_violation_message(self, G, a, W, lhs, monkeypatch):
        # the claim messages are built only on failure, with the same text
        monkeypatch.setattr(constructor.Constants, "cell_bound_ok", lambda self, count, d, a: False)
        with pytest.raises(PostconditionFailedError) as ei:
            construct(G, a, W)
        assert str(ei.value) == (
            "construct: claim cell_bound violated: "
            f"depth 0: {lhs} vs (13/6)*t*a*(2/3)^d + 3*d*a, a={a}"
        )


class TestTheorem2:
    def _check(self, G, a):
        rep = construct_theorem2(G, a)
        ok, v = validate_decomposition(G, rep.decomposition)
        assert ok, v
        assert rep.width < 4 * a
        return rep

    def test_k1(self):
        assert self._check(complete_graph(1), 1).width == 0

    def test_paths_and_trees_a1(self):
        for G in (path_graph(10), path_graph(18), random_tree(17, seed=1)):
            rep = self._check(G, 1)
            assert rep.width <= 3

    def test_cycle_a2(self):
        assert self._check(cycle_graph(9), 2).width <= 7

    def test_complete(self):
        # sep(K12) = 4; bags stay below 16
        self._check(complete_graph(12), 4)

    def test_random_at_sep_number(self):
        for seed in (0, 1, 2):
            G = gnp_graph(12, 0.3, seed)
            self._check(G, separation_number(G))

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceededError):
            construct_theorem2(path_graph(25), 1)

    def test_a_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            construct_theorem2(path_graph(5), 0)

    @pytest.mark.parametrize("a", [1.5, 2.0, True])
    def test_non_integer_a_rejected(self, a):
        with pytest.raises(InvalidInputError) as ei:
            construct_theorem2(path_graph(10), a)
        assert str(ei.value) == f"construct_theorem2: a must be an integer >= 1, got {a!r}"

    def test_invalid_output_raises(self, monkeypatch):
        # a leaf bag missing a vertex no longer decomposes G; construct_theorem2
        # validates its own output
        real = constructor._checked_report

        def corrupt(where, G, parents, bags, *rest):
            # the last bag mask loses its highest vertex before it is checked
            last = bags[-1]
            return real(where, G, parents, bags[:-1] + [last ^ 1 << last.bit_length() - 1], *rest)

        monkeypatch.setattr(constructor, "_checked_report", corrupt)
        with pytest.raises(
            PostconditionFailedError, match="^construct_theorem2: invalid decomposition"
        ):
            construct_theorem2(cycle_graph(12), 2)


def exhaustive_useful_w_balanced(G, w_mask: int, wpad_mask: int, a: int):
    """Reference for `_useful_w_balanced`: tries every grouping of every
    separator's components and keeps the smallest useful A side."""
    full = G.full_mask()
    hi = (2 * wpad_mask.bit_count()) // 3
    saw_degenerate = False
    for _, z_mask, comps in separators(G.adj_masks, range(G.n), full, range(min(a, G.n) + 1)):
        weights = [(c & wpad_mask).bit_count() for c in comps]
        lo = (wpad_mask & ~z_mask).bit_count() - hi
        best = None
        for sel in range(1 << len(comps)):
            if not lo <= sum(wt for i, wt in enumerate(weights) if sel >> i & 1) <= hi:
                continue
            a_mask = z_mask
            for i, c in enumerate(comps):
                if sel >> i & 1:
                    a_mask |= c
            b_mask = (full & ~a_mask) | z_mask
            if (a_mask == full and (a_mask & b_mask) & ~w_mask == 0) or (
                b_mask == full and a_mask & ~w_mask == 0
            ):
                saw_degenerate = True
                continue
            key = tuple(mask_vertices(a_mask))
            if best is None or key < best[0]:
                best = (key, a_mask)
        if best is not None:
            return z_mask, best[1]
    if saw_degenerate:
        raise RecursionGuardError("only degenerate W-balanced separations available")
    raise WBalancedUnavailableError(frozenset(mask_vertices(wpad_mask)), a)


class TestUsefulWBalanced:
    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except (RecursionGuardError, WBalancedUnavailableError) as exc:
            return type(exc).__name__

    def test_matches_exhaustive(self):
        # gnp graphs with n <= 12, often with many components; W may be
        # empty, as at the first step of construct_theorem2
        rng = random.Random(11)
        seen = Counter()
        for i in range(400):
            n = rng.randint(1, 12)
            G = gnp_graph(n, rng.choice([0.08, 0.15, 0.3]), i)
            w_mask = rng.getrandbits(n)
            args = (G, w_mask, w_mask | rng.getrandbits(n), rng.randint(1, 3))
            want = self._outcome(exhaustive_useful_w_balanced, *args)
            got = self._outcome(_useful_w_balanced, G, G.full_mask(), *args[1:])
            assert got == want, (i, args[1:])
            seen[want if isinstance(want, str) else "found"] += 1
        assert set(seen) == {"found", "RecursionGuardError", "WBalancedUnavailableError"}, seen

    def test_proper_universe_matches_exhaustive_on_induced(self):
        # on a universe X of G, the search answers as the exhaustive one on
        # G[X] does, with masks and error sets mapped back to G's ids
        rng = random.Random(12)
        seen = Counter()
        for i in range(400):
            n = rng.randint(2, 14)
            G = gnp_graph(n, rng.choice([0.1, 0.2, 0.35]), 100 + i)
            xs = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            x_mask = mask_of(xs)
            w_mask = rng.getrandbits(n) & x_mask
            wpad_mask = w_mask | (rng.getrandbits(n) & x_mask)
            a = rng.randint(1, 3)
            H, to_g = induced_subgraph(G, xs)
            to_h = {g: h for h, g in to_g.items()}

            def local(mask):
                return mask_of(to_h[v] for v in mask_vertices(mask))

            def back(mask):
                return mask_of(to_g[v] for v in mask_vertices(mask))

            want = self._outcome(
                exhaustive_useful_w_balanced, H, local(w_mask), local(wpad_mask), a
            )
            try:
                got = _useful_w_balanced(G, x_mask, w_mask, wpad_mask, a)
            except RecursionGuardError as exc:
                got = type(exc).__name__
            except WBalancedUnavailableError as exc:
                assert exc.w_set == frozenset(mask_vertices(wpad_mask))
                got = type(exc).__name__
            if isinstance(want, tuple):
                want = tuple(map(back, want))
            assert got == want, (i, xs, w_mask, wpad_mask, a)
            seen[want if isinstance(want, str) else "found"] += 1
        assert set(seen) == {"found", "RecursionGuardError", "WBalancedUnavailableError"}, seen

    def test_star(self):
        # the centre of K_{1,19} leaves 19 components, 2^19 groupings; the
        # digest is the exhaustive search's output
        G = build_graph(20, [(0, i) for i in range(1, 20)])
        td = construct_theorem2(G, 1).decomposition
        assert hashlib.sha256(write_td(td, G).encode()).hexdigest() == (
            "f15f9d1afcf5627ccc26ca550bc3cd4713ca083ec715c927579bff4b6dd04459"
        )


class TestOracleInteraction:
    def test_explicit_oracle_counted(self):
        rep = construct(path_graph(100), 1, {0}, oracle=make_oracle(1))
        assert rep.recursion_stats.oracle_calls > 0

    def test_heuristic_failure_not_certified(self):
        # a cycle has no balanced separation of order 1; the cutter's miss is
        # reported but carries no sep(G) > a certificate
        with pytest.raises(OracleFailureError) as ei:
            construct(cycle_graph(120), 1, {0}, oracle=cutter_oracle(1))
        assert ei.value.certified is False

    def test_failure_witness_in_host_ids(self):
        # the oracle fails inside a nested subproblem; the witness must name
        # the vertices of the graph it failed on, in G's ids (every
        # re-indexing keeps sorted order, so the induced subgraphs are equal)
        G = random_tree(400, seed=3)
        failed_on = []

        def oracle(H):
            if len(failed_on) < 20:
                failed_on.append(None)
                return make_oracle(1)(H)
            failed_on.append(H)
            return SeparatorOracleOutcome(None, certified=False)

        with pytest.raises(OracleFailureError) as ei:
            construct(G, 1, {0}, oracle=oracle)
        H = failed_on[20]
        assert len(failed_on) == 21 and H.n < G.n
        assert induced_subgraph(G, ei.value.witness)[0].adjacency == H.adjacency


class TestCutter:
    """construct on graphs past the exact search's budget, where only the
    cutter can answer."""

    def _check(self, G, a):
        reps = [
            construct(G, a, {0}, oracle=cutter_oracle(a))
            for _ in range(2)
        ]
        ok, v = validate_decomposition(G, reps[0].decomposition)
        assert ok, v
        assert write_td(reps[0].decomposition, G) == write_td(reps[1].decomposition, G)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k,n", [(3, 120), (3, 140), (3, 160), (2, 280)])
    def test_partial_ktrees(self, k, n, seed):
        self._check(partial_ktree(n, k, seed=seed), k + 1)

    def test_grid(self):
        self._check(grid_graph(30, 30), 30)

    def test_long_cycle(self):
        # C(2100, <=2) candidates exceed the budget, so auto mode runs the
        # cutter too
        G = cycle_graph(2100)
        rep = construct(G, 2, {0})
        ok, v = validate_decomposition(G, rep.decomposition)
        assert ok, v
