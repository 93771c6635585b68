"""End-to-end acceptance suite.

Each test exercises one advertised guarantee over a deterministic desk-scale
corpus and emits a single PASS line on the real stdout (bypassing capture)
so the full run reads as a checklist.
"""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from sepdecomp.constructor import construct, construct_theorem2
from sepdecomp.errors import RecursionGuardError
from sepdecomp.generators import (
    complete_graph,
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
    components_in,
    induced_subgraph,
    is_separation,
    mask_vertices,
)
from sepdecomp.decomposition import (
    restrict_decomposition,
    separation_tree,
    validate_decomposition,
)
from sepdecomp.menger import disjoint_paths, separates
from sepdecomp.pace import parse_gr, parse_td, write_gr, write_td
from sepdecomp.separations import separation_number
from sepdecomp.verification import check_zw_inequality, treewidth_exact
from sepdecomp.wsequence import build_w_sequence, validate_w_sequence


@pytest.fixture
def report(request):
    """One PASS line per criterion, written past pytest's capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(criterion: int, message: str) -> None:
        line = f"ACCEPTANCE {criterion}: PASS - {message}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:  # pragma: no cover
            sys.__stdout__.write(line + "\n")

    return _report


# ---------------------------------------------------------------------------
# corpus helpers
# ---------------------------------------------------------------------------


def all_connected_graphs(n):
    """Every labeled connected graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        G = build_graph(n, edges)
        if len(components_in(G.adj_masks, G.full_mask())) == 1:
            yield G


def random_connected(n, p, rng):
    while True:
        G = gnp_graph(n, p, rng.randrange(1 << 30))
        if len(components_in(G.adj_masks, G.full_mask())) == 1:
            return G


def all_separations(G):
    """Every separation (A, B) of G, as a set of ordered pairs."""
    verts = list(range(G.n))
    out = []
    for k in range(G.n + 1):
        for Z in combinations(verts, k):
            zset = frozenset(Z)
            H, new_to_old = induced_subgraph(G, set(verts) - zset)
            comps = [
                frozenset(new_to_old[v] for v in mask_vertices(c))
                for c in components_in(H.adj_masks, H.full_mask())
            ]
            for bits in range(1 << len(comps)):
                A = set(zset)
                B = set(zset)
                for i, c in enumerate(comps):
                    (A if bits >> i & 1 else B).update(c)
                out.append(Separation(frozenset(A), frozenset(B)))
    return out


def random_separation(G, rng):
    """A uniform-ish separation: random separator, components dealt to sides."""
    k = rng.randint(0, max(0, G.n - 1))
    zset = frozenset(rng.sample(range(G.n), k))
    H, new_to_old = induced_subgraph(G, set(range(G.n)) - zset)
    A, B = set(zset), set(zset)
    for c in components_in(H.adj_masks, H.full_mask()):
        (A if rng.random() < 0.5 else B).update(new_to_old[v] for v in mask_vertices(c))
    sep = Separation(frozenset(A), frozenset(B))
    assert is_separation(G, sep)
    return sep


def structured_corpus():
    """(graph, a, label): construction corpus with known-good a values."""
    items = []
    for n in range(1, 201):
        items.append((path_graph(n), 1, f"path{n}"))
        if n >= 3:
            items.append((cycle_graph(n), 1 if n == 3 else 2, f"cycle{n}"))
        items.append((random_tree(n, seed=n), 1, f"tree{n}"))
    items.append((grid_graph(4, 4), 2, "grid4x4"))
    items.append((grid_graph(5, 5), 2, "grid5x5"))
    for n in range(1, 13):
        items.append((complete_graph(n), -(-n // 3), f"K{n}"))
    # treewidth <= 2 gives sep <= 3; above the base case (n >= t*3 ~ 83.9)
    # and within the exact oracle's candidate budget, so a = 3 recurses
    for n in (90, 120, 150):
        for s in range(3):
            items.append((partial_ktree(n, 2, seed=s), 3, f"ktree2_{n}_{s}"))
    rng = random.Random(20260826)
    for i in range(200):
        n = rng.randint(2, 40)
        p = rng.choice([0.1, 0.3, 0.5])
        G = gnp_graph(n, p, rng.randrange(1 << 30))
        if G.n <= 14:
            a = separation_number(G)
        else:
            a = -(-G.n // 3)
        items.append((G, a, f"gnp{i}"))
    return items


def test_criterion_1_width_bound(report):
    corpus = structured_corpus()
    checked = 0
    recursed = Counter()  # a -> instances that made oracle calls
    for G, a, label in corpus:
        rep = construct(G, a, {0})
        ok, violations = validate_decomposition(G, rep.decomposition)
        assert ok, (label, violations)
        assert 139 * (rep.width + 1) <= 7915 * a, (label, rep.width, a)
        assert 139 * rep.width < 7915 * a, (label, rep.width, a)
        recursed[a] += rep.recursion_stats.oracle_calls > 0
        checked += 1
    assert recursed[3] > 0, recursed
    per_a = ", ".join(f"{k} at a={a}" for a, k in sorted(recursed.items()) if k)
    report(1, f"width < (7915/139)a and validation on {checked} corpus graphs; recursed: {per_a}")


def test_criterion_2_menger_duality(report):
    def min_separator_matches(G, S, T, count, separator):
        # count <= |separator| and separator separates proves the upper
        # bound; absence of any smaller separator proves the lower bound
        assert separator is not None and len(separator) == count
        assert separates(G, separator, S, T)
        verts = range(G.n)
        for k in range(count):
            for Z in combinations(verts, k):
                assert not separates(G, Z, S, T), (sorted(S), sorted(T), Z)

    rng = random.Random(1)
    checks = 0
    graphs = []
    for n in (2, 3, 4, 5):
        graphs.extend(all_connected_graphs(n))
    for _ in range(120):
        graphs.append(random_connected(rng.choice((6, 7)), rng.choice((0.3, 0.5)), rng))
    for G in graphs:
        verts = list(range(G.n))
        for _ in range(20):
            rng.shuffle(verts)
            ks = rng.randint(1, max(1, G.n // 2))
            kt = rng.randint(1, max(1, G.n // 2))
            S, T = frozenset(verts[:ks]), frozenset(verts[ks : ks + kt])
            if not T:
                continue
            res = disjoint_paths(G, S, T, cap=G.n)
            min_separator_matches(G, S, T, len(res.paths), res.separator)
            checks += 1
    assert checks >= 10_000
    report(2, f"path count = min separator size on {checks} (G,S,T) instances")


def test_criterion_3_zw_inequality_sweep(report):
    rng_pick = random.Random(99)

    def sweep(G, W_choices):
        done = 0
        for W in W_choices:
            for w in range(1, len(W) + 1):
                ws = build_w_sequence(G, W, w)
                if ws.ell < 1:
                    continue
                ok, tags = validate_w_sequence(G, ws)
                assert ok, tags
                ell = ws.ell
                Wset, Z = ws.levels[0], ws.z_set
                H, new_to_old = induced_subgraph(G, ws.levels[-1])
                lifted = [
                    Separation(
                        frozenset(new_to_old[v] for v in ab.a_side),
                        frozenset(new_to_old[v] for v in ab.b_side),
                    )
                    for ab in all_separations(H)
                ]
                for sep in lifted:
                    A, B = sep.a_side, sep.b_side
                    lhs = len(Wset - B) + len(Z - B)
                    strict = len(A - B)
                    order = len(A & B)
                    # cross-multiplied: lhs <= (13/6)|A\B|/(l+2) + 3|A n B|
                    assert 6 * (ell + 2) * lhs <= 13 * strict + 18 * (
                        ell + 2
                    ) * order, (sorted(W), w, sep)
                    # weaker secondary bound: lhs <= 2|A\B|/(l+1) + 3|A n B|
                    assert (ell + 1) * lhs <= 2 * strict + 3 * (ell + 1) * order, (
                        sorted(W), w, sep,
                    )
                    done += 1
                # spot-check one separation through the public checker
                sample = lifted[rng_pick.randrange(len(lifted))]
                chk = check_zw_inequality(G, ws, sample)
                assert chk.holds and chk.secondary_holds
        return done

    checks = 0
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            singletons = [{v} for v in range(n)]
            doubletons = [set(p) for p in combinations(range(n), 2)]
            checks += sweep(G, singletons + doubletons)
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(6, 9)
        G = random_connected(n, 0.35, rng)
        v1, v2, v3 = rng.sample(range(n), 3)
        checks += sweep(G, [{v1}, {v2, v3}])
    report(3, f"both rational bounds hold on {checks} (W-sequence, separation) pairs")


def test_criterion_4_separation_tree_invariants(report):
    corpus = [
        (path_graph(200), 1),
        (cycle_graph(150), 2),
        (random_tree(120, seed=9), 1),
        (grid_graph(4, 4), 6),
        (grid_graph(5, 5), 9),
        (complete_graph(8), 3),
    ]
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 14)
        G = gnp_graph(n, 0.3, rng.randrange(1 << 30))
        corpus.append((G, separation_number(G)))
    nodes = 0
    for G, a in corpus:
        for h in range(1, 6):
            t = separation_tree(G, a, h)
            ok, violations = validate_decomposition(G, t)
            assert ok, violations
            depths = t.depths()
            bnds = t.boundaries()
            ints = t.interiors()
            assert max(depths) <= h
            for x in range(t.size):
                d = depths[x]
                assert 3**d * len(ints[x]) <= 2**d * G.n
                assert len(bnds[x]) <= d * a
            for leaf in t.leaves():
                assert 3**h * len(ints[leaf]) <= 2**h * G.n
            nodes += t.size
    report(4, f"height/interior/boundary invariants at {nodes} recursion nodes")


def test_criterion_5_restriction(report):
    rng = random.Random(4)
    done = 0
    while done < 1000:
        n = rng.randint(2, 12)
        G = gnp_graph(n, rng.choice((0.2, 0.4)), rng.randrange(1 << 30))
        t = separation_tree(G, -(-n // 3), rng.randint(0, 3))
        sep = random_separation(G, rng)
        r = restrict_decomposition(G, t, sep)
        assert sep.a_side & sep.b_side <= r.bags[r.root]
        H, new_to_old = induced_subgraph(G, sep.b_side)
        old_to_new = {o: k for k, o in new_to_old.items()}
        mapped = type(r)(
            H.n,
            r.parents,
            tuple(frozenset(old_to_new[v] for v in b) for b in r.bags),
        )
        ok, violations = validate_decomposition(H, mapped)
        assert ok, violations
        done += 1
    report(5, f"{done} random restrictions decompose G[Y] with X∩Y in the root bag")


def test_criterion_6_w_sequences(report):
    rng = random.Random(5)
    done = 0
    while done < 1000:
        n = rng.randint(1, 30)
        G = gnp_graph(n, rng.choice((0.1, 0.25, 0.5)), rng.randrange(1 << 30))
        k = rng.randint(1, min(4, n))
        W = frozenset(rng.sample(range(n), k))
        w = rng.randint(1, k)
        ws = build_w_sequence(G, W, w)
        ok, tags = validate_w_sequence(G, ws)
        assert ok, tags
        assert len(ws.z_set) < len(W)
        done += 1
    report(6, f"{done} random W-sequences validate with |Z| < |W|")


def test_criterion_7_cross_checks(report):
    graphs = [complete_graph(n) for n in range(1, 10)]
    graphs += [path_graph(n) for n in range(1, 10)]
    graphs += [cycle_graph(n) for n in range(3, 10)]
    graphs += [random_tree(n, seed=n) for n in range(2, 10)]
    graphs.append(grid_graph(2, 2))
    graphs.append(grid_graph(3, 3))
    rng = random.Random(6)
    graphs += [gnp_graph(rng.randint(2, 9), 0.4, i) for i in range(40)]
    for G in graphs:
        sep = separation_number(G)
        tw = treewidth_exact(G).value
        assert sep <= tw + 1
        assert tw <= 7915 * sep // 139
    for n in range(1, 10):
        assert separation_number(complete_graph(n)) == -(-n // 3)
        assert treewidth_exact(complete_graph(n)).value == n - 1
    for k in (2, 3, 4):
        assert treewidth_exact(grid_graph(k, k)).value == k
    report(7, f"sep/tw cross-checks exact on {len(graphs)} graphs plus K_n and grid families")


def test_criterion_8_four_a_construction(report):
    corpus = [(path_graph(n), 1) for n in range(1, 17)]
    corpus += [(random_tree(n, seed=n), 1) for n in range(2, 17)]
    corpus += [(cycle_graph(n), 1 if n == 3 else 2) for n in range(3, 17)]
    corpus += [(complete_graph(n), -(-n // 3)) for n in range(1, 13)]
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 16)
        G = gnp_graph(n, rng.choice((0.2, 0.4)), rng.randrange(1 << 30))
        a = separation_number(G) if n <= 14 else -(-n // 3)
        corpus.append((G, a))
    done = skipped = 0
    for G, a in corpus:
        try:
            rep = construct_theorem2(G, a)
        except RecursionGuardError:
            skipped += 1  # the W-balanced hypothesis fails for this (G, a)
            continue
        ok, violations = validate_decomposition(G, rep.decomposition)
        assert ok, violations
        assert all(len(b) <= 4 * a for b in rep.decomposition.bags)
        # a violated claim raises; the count shows the check ran
        assert rep.recursion_stats.claims["order_3a"] > 0
        assert rep.width < 4 * a
        done += 1
    assert done >= 90
    report(8, f"width < 4a with orders <= 3a on {done} instances ({skipped} hypothesis-failing skipped)")


def test_criterion_9_determinism_and_round_trips(report):
    corpus = [
        (path_graph(150), 1),
        (cycle_graph(90), 2),
        (random_tree(70, seed=11), 1),
        (gnp_graph(12, 0.3, 12), separation_number(gnp_graph(12, 0.3, 12))),
    ]
    for G, a in corpus:
        r1 = construct(G, a, {0})
        r2 = construct(G, a, {0})
        t1 = write_td(r1.decomposition, G)
        assert t1 == write_td(r2.decomposition, G)
        # disk round-trips are lossless
        assert parse_gr(write_gr(G)).adj_masks == G.adj_masks
        assert write_td(parse_td(t1), G) == t1
    report(9, "byte-identical reruns and lossless .gr/.td round-trips")


def test_criterion_10_debug_claims(report):
    corpus = [
        (path_graph(200), 1),
        (cycle_graph(200), 2),
        (random_tree(180, seed=13), 1),
        (path_graph(60), 1),
    ]
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(29, 60)  # above the base-case cut for a = 1 at n = 28
        G = random_tree(n, seed=rng.randrange(1 << 30))
        corpus.append((G, 1))
    claims_seen = set()
    records = 0
    for G, a in corpus:
        # a violated claim raises, so every counted check held
        claims = construct(G, a, {0}).recursion_stats.claims
        claims_seen |= set(claims)
        records += sum(claims.values())
    for required in ("cell_bound", "leaf_interface", "treewidth_bound"):
        assert required in claims_seen, claims_seen
    report(10, f"{records} counted claim checks, zero violations")
