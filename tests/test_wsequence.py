import random
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp import wsequence
from sepdecomp.constructor import construct
from sepdecomp.errors import (
    EmptyWError,
    InvalidInputError,
    PostconditionFailedError,
    WidthOutOfRangeError,
)
from sepdecomp.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from sepdecomp.graph import build_graph, components_in, induced_subgraph, mask_of
from sepdecomp.menger import disjoint_paths, separates
from sepdecomp.wsequence import build_w_sequence, validate_w_sequence
from test_golden import NODE_ID_CASES


def _replace(ws, **change):
    """The record `ws` rebuilt from its fields, with those in `change` replaced."""
    return type(ws)(**{f: getattr(ws, f) for f in ws._fields} | change)


class TestBuildExamples:
    def test_path_three_singleton_w(self):
        # P3, W = {0}, w = 1: layers grow one vertex per round until the far
        # end is swallowed, then r = 0 < w ends the sequence with Z empty.
        G = path_graph(3)
        ws = build_w_sequence(G, {0}, 1)
        assert ws.levels[0] == {0}
        assert ws.levels[-1] == {0, 1, 2}
        assert ws.z_set == frozenset()
        assert ws.sizes[-1] == 0
        ok, tags = validate_w_sequence(G, ws)
        assert ok, tags

    def test_isolated_w_terminates_immediately(self):
        G = build_graph(4, [(1, 2), (2, 3)])
        ws = build_w_sequence(G, {0}, 1)
        assert ws.ell == 0
        assert ws.levels == ({0}, {0})
        assert ws.z_set == frozenset()

    def test_complete_graph_width_two(self):
        G = complete_graph(6)
        ws = build_w_sequence(G, {0, 1}, 2)
        ok, tags = validate_w_sequence(G, ws)
        assert ok, tags
        # every level past the first adds exactly two vertices until < 2 remain
        assert all(s == 2 for s in ws.sizes[1 : ws.ell + 1])

    def test_z_separates_top(self):
        G = path_graph(8)
        ws = build_w_sequence(G, {3}, 1)
        ok, tags = validate_w_sequence(G, ws)
        assert ok, tags
        # the separator size always matches the final deficit
        assert len(ws.z_set) == ws.sizes[-1]


class TestErrors:
    def test_empty_w(self):
        with pytest.raises(EmptyWError):
            build_w_sequence(path_graph(3), set(), 1)

    def test_width_zero(self):
        with pytest.raises(WidthOutOfRangeError):
            build_w_sequence(path_graph(3), {0}, 0)

    def test_width_above_w(self):
        with pytest.raises(WidthOutOfRangeError):
            build_w_sequence(path_graph(3), {0, 1}, 3)

    @pytest.mark.parametrize("w", [1.5, True])
    def test_non_integer_width(self, w):
        with pytest.raises(InvalidInputError) as ei:
            build_w_sequence(path_graph(6), [0, 1], w)
        assert str(ei.value) == f"build_w_sequence: w must be an integer, got {w!r}"


class TestPostconditions:
    """A minimum cut that breaks the W-sequence's final condition raises a
    typed error (a plain assert would vanish under python -O)."""

    @pytest.mark.parametrize("bogus, message", [
        (frozenset({2, 3}), "separator of size 2 for 1 paths"),
        (frozenset({3}), "separator leaves the last layer"),
    ])
    def test_bad_separator(self, monkeypatch, bogus, message):
        real = wsequence._complete

        def fake(*args):
            cut = real(*args)
            return cut if cut is None else bogus

        monkeypatch.setattr(wsequence, "_complete", fake)
        # W = {0, 1} with 1 isolated: 0 takes 2, 1 cannot be re-rooted, so
        # the closing flow keeps the one path 2-0, the last layer is
        # {0, 1, 2} and the true separator has size 1
        G = build_graph(4, [(0, 2), (2, 3)])
        with pytest.raises(PostconditionFailedError, match=f"build_w_sequence: {message}"):
            build_w_sequence(G, {0, 1}, 2)


# path 0-1-2-3-4-5 with W = {0, 2} and w = 2 gives the valid sequence
# Δ = {0,2}, {1,3}, {4} and Z = {4}: round 1 extends W's own vertices (0 by 1,
# 2 by 3), round 2 extends 3 by 4 but finds no free vertex to re-root 1 on,
# so it drops 1's path and completes the flow, whose one path 4-3-2 ends the
# sequence; as paths, ((0,), (2,)), ((1, 0), (3, 2)), ((4, 3, 2),)
D0, D1, D2 = frozenset({0, 2}), frozenset({1, 3}), frozenset({4})
K0, K1, K2 = ((0, ()), (2, ())), ((1, 0), (3, 1)), ((4, (3, 2)),)
TAMPERS = {
    "short_sequence": ("nesting", {"deltas": (D0,)}),
    "reused_vertex": ("nesting", {"deltas": (D0, frozenset({1, 2}), D2)}),
    "empty_w": ("(a)", {"deltas": (frozenset(), D1, D2)}),
    "short_inner_layer": ("(b)", {"deltas": (D0, frozenset({1}), D2)}),
    "full_last_layer": ("(c)", {"deltas": (D0, D1, frozenset({4, 5}))}),
    "unlinked_layer": ("(d)", {"deltas": (D0, frozenset({1, 5}), frozenset({3, 4}))}),
    "family_count": ("paths", {"links": (K0, K1)}),
    "family_size": ("paths", {"links": (K0, ((1, 0),), K2)}),
    "wrong_start": ("paths", {"links": (K0, ((1, 0), (4, 1)), K2)}),
    "leaves_level": ("paths", {"links": (K0, ((1, (0,)), (3, (4, 3, 2))), K2)}),
    "paths_meet": ("paths", {"links": (K0, ((1, 0), (3, 0)), K2)}),
    "non_edge": ("paths", {"links": (K0, ((3, 0), (1, 1)), K2)}),
    "dangling_link": ("paths", {"links": (K0, ((1, 0), (3, 2)), K2)}),
    "revisits_path": ("paths", {"deltas": (D0, D1, frozenset({2})), "links": (K0, K1, ((2, 1),))}),
    "tail_non_edge": ("paths", {"links": (K0, K1, ((4, (2,)),))}),
}


class TestValidateRejects:
    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_one_field_tampered(self, name):
        G = path_graph(6)
        ws = build_w_sequence(G, {0, 2}, 2)
        assert (ws.deltas, ws.links, ws.z_set) == ((D0, D1, D2), (K0, K1, K2), frozenset({4}))
        assert ws.witness_paths == (((0,), (2,)), ((1, 0), (3, 2)), ((4, 3, 2),))
        assert validate_w_sequence(G, ws) == (True, [])
        tag, change = TAMPERS[name]
        ok, tags = validate_w_sequence(G, _replace(ws, **change))
        assert not ok and tag in tags

    def test_broken_nesting(self):
        G = path_graph(3)
        ws = build_w_sequence(G, {0}, 1)
        bad = type(ws)(
            deltas=(ws.deltas[0], frozenset({0})),
            width_w=1,
            z_set=frozenset(),
            links=ws.links[:2],
        )
        ok, tags = validate_w_sequence(G, bad)
        assert not ok and "nesting" in tags

    def test_wrong_z(self):
        G = path_graph(6)
        ws = build_w_sequence(G, {0, 2}, 2)
        bad = type(ws)(
            deltas=ws.deltas, width_w=ws.width_w,
            z_set=frozenset({0}), links=ws.links,
        )
        ok, tags = validate_w_sequence(G, bad)
        assert not ok and "(e)" in tags

    def test_link_written_out_as_tail(self):
        # a level may mix links and written-out paths; the paths are the same
        G = path_graph(6)
        ws = build_w_sequence(G, {0, 2}, 2)
        mixed = _replace(ws, links=(K0, ((1, 0), (3, (2,))), K2))
        assert mixed.witness_paths == ws.witness_paths
        assert validate_w_sequence(G, mixed) == (True, [])


GRAPHS = {
    "gnp": lambda n, seed: gnp_graph(n, 0.4, seed),
    "tree": random_tree,
    "cycle": lambda n, seed: cycle_graph(n),
    "grid": lambda n, seed: grid_graph(2 + seed % 3, -(-n // (2 + seed % 3))),
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_sequences_validate(data):
    """Sequences on seeded gnp graphs, trees, cycles and grids validate and
    agree with the flow reference, with w = |W| (the first round extends W's
    own vertices) and w < |W| (the first round runs the flow)."""
    kind = data.draw(st.sampled_from(sorted(GRAPHS)))
    G = GRAPHS[kind](data.draw(st.integers(3, 24)), data.draw(st.integers(0, 10_000)))
    k = data.draw(st.integers(1, min(5, G.n)))
    W = frozenset(data.draw(st.permutations(range(G.n)))[:k])
    w = data.draw(st.one_of(st.just(len(W)), st.integers(1, len(W))))
    ws = build_w_sequence(G, W, w)
    assert validate_w_sequence(G, ws) == (True, []) == flow_per_level_validator(G, ws)
    assert ws.levels[0] == W and ws.width_w == w


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tail_matches_cold_flow(data):
    """The kept flow ends where a cold Menger flow from V \\ W_l to W would:
    the same minimum cut Z (the source-side one, which every maximum flow
    shares) and as many paths, for w = |W| and w < |W|."""
    kind = data.draw(st.sampled_from(sorted(GRAPHS)))
    G = GRAPHS[kind](data.draw(st.integers(3, 40)), data.draw(st.integers(0, 10_000)))
    W = frozenset(data.draw(st.permutations(range(G.n)))[:data.draw(st.integers(1, min(5, G.n)))])
    w = data.draw(st.one_of(st.just(len(W)), st.integers(1, len(W))))
    ws = build_w_sequence(G, W, w)
    assert validate_w_sequence(G, ws) == (True, [])
    cold = disjoint_paths(G, set(range(G.n)) - ws.levels[ws.ell], W, w)
    assert cold.separator == ws.z_set and len(cold.paths) == ws.sizes[-1] < w


def test_tree_sequence_runs_no_global_flow(monkeypatch):
    # every stuck round is repaired locally or closes the sequence; the
    # rounds used to run 176 global flows here
    calls = Counter()
    real = wsequence.disjoint_paths

    def counted(*args):
        calls["disjoint_paths"] += 1
        return real(*args)

    monkeypatch.setattr(wsequence, "disjoint_paths", counted)
    G = random_tree(800, 1)
    ws = build_w_sequence(G, {0, 266, 400}, 3)
    assert calls["disjoint_paths"] == 0 and ws.ell > 100
    monkeypatch.undo()
    assert validate_w_sequence(G, ws) == (True, [])


def test_repair_reroutes_through_another_path(monkeypatch):
    """W = {0, 1}: round 1 takes 2 and 3, round 2 extends 2 by 4 and leaves
    3 stuck.  The only free vertex, 5, reaches 3 only by taking over 2 from
    the path 4-2-0: the repair cancels the arc 4 -> 2, so 4 runs on through
    3 and 5 through 2, and both paths are written out."""
    G = build_graph(6, [(0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
    real, paths = wsequence._reroot, []

    def recorded(*args):
        paths.append(real(*args))
        return paths[-1]

    monkeypatch.setattr(wsequence, "_reroot", recorded)
    ws = build_w_sequence(G, {0, 1}, 2)
    # split nodes: 2v = v_in, 2v + 1 = v_out, 12 the source; 4 -> 9 runs
    # the arc 4_out -> 2_in backwards
    assert paths[0] == [12, 10, 11, 4, 9, 6]
    assert ws.deltas == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset())
    assert ws.links[2] == ((4, (3, 1)), (5, (2, 0)))
    assert validate_w_sequence(G, ws) == (True, [])


def test_path_witnesses_take_linear_memory():
    # one vertex a level: each round extends the last path by one link
    n = 800
    ws = build_w_sequence(path_graph(n), {0}, 1)
    stored = sum(1 + (0 if isinstance(rest, int) else len(rest)) for fam in ws.links for _, rest in fam)
    assert ws.ell == n - 1 and stored <= 2 * n
    assert validate_w_sequence(path_graph(n), ws) == (True, [])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tail_matches_full_sequence(data):
    """The tail that construct reads, as masks, agrees with the witnessed sequence:
    in closed form for |W| = 1 (connected or not, W isolated or not), read
    from build_w_sequence for larger W; the components are those of G - Z."""
    n = data.draw(st.integers(1, 14))
    p = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.4]))
    G = gnp_graph(n, p, data.draw(st.integers(0, 10_000)))
    size = data.draw(st.sampled_from([1, 1, 1, 2, 3]))
    W = frozenset(data.draw(st.permutations(range(n)))[:size])
    ws = build_w_sequence(G, W, len(W))
    sets = (ws.levels[ws.ell], ws.levels[ws.ell + 1], ws.z_set)
    comps = components_in(G.adj_masks, G.full_mask() & ~mask_of(ws.z_set))
    expected = (*map(mask_of, sets), ws.ell == 0, comps)
    assert wsequence._sequence_tail(G, mask_of(W)) == expected


def flow_per_level_validator(G, ws):
    """Reference for `validate_w_sequence`: (d) by a Menger flow inside
    G[W_i] at every level, and the witness families written out as paths
    and checked on their own."""
    violated = []
    deltas = ws.deltas
    if len(deltas) < 2:
        return False, ["nesting"]
    levels, W, ell, sizes = ws.levels, deltas[0], ws.ell, ws.sizes
    if any(lo & d for lo, d in zip(levels, deltas[1:])):
        violated.append("nesting")
    if not W:
        violated.append("(a)")
    if any(sizes[i] != ws.width_w for i in range(1, ell + 1)):
        violated.append("(b)")
    if not 0 <= sizes[ell + 1] <= ws.width_w - 1:
        violated.append("(c)")
    for lvl, delta in zip(levels, deltas):
        H, new_to_old = induced_subgraph(G, lvl)
        old_to_new = {o: n for n, o in new_to_old.items()}
        res = disjoint_paths(
            H, [old_to_new[v] for v in delta], [old_to_new[v] for v in W], len(delta)
        )
        if len(res.paths) < len(delta):
            violated.append("(d)")
            break

    def family_ok(lvl, delta, fam):
        used = set()
        for vs in fam:
            if not vs or vs[0] not in delta or vs[-1] not in W or any(v not in lvl for v in vs):
                return False
            if len(set(vs)) != len(vs) or used & set(vs):
                return False
            if not all(G.has_edge(u, v) for u, v in zip(vs, vs[1:])):
                return False
            used |= set(vs)
        return len(fam) == len(delta)

    if len(ws.links) != len(deltas) or not all(
        family_ok(*t) for t in zip(levels, deltas, ws.witness_paths)
    ):
        violated.append("paths")
    z = ws.z_set
    if (
        len(z) != sizes[ell + 1]
        or not z <= levels[ell + 1]
        or not separates(G, z, frozenset(range(G.n)) - levels[ell], W)
    ):
        violated.append("(e)")
    return not violated, violated


def tamper(ws, n, rng):
    """`ws` with one field changed at random, every vertex kept in range."""
    deltas, fams = list(ws.deltas), [list(f) for f in ws.links]
    i = rng.randrange(len(deltas))
    v = rng.randrange(n)
    kind = rng.randrange(11)
    fam = fams[i] if i < len(fams) else []
    k = rng.randrange(len(fam)) if fam else None
    if kind == 0:
        deltas[i] = deltas[i] ^ {v}
    elif kind == 1:
        deltas[i] = deltas[i] | {v}
    elif kind == 2:
        deltas[i] = frozenset()
    elif kind == 3:
        del deltas[i]
    elif kind == 4:
        j = rng.randrange(len(deltas))
        deltas[i], deltas[j] = deltas[j], deltas[i]
    elif kind == 5 and fam:
        fam[k] = (v, fam[k][1])
    elif kind == 6 and fam:
        head, rest = fam[k]
        if isinstance(rest, int):
            rest = rest + rng.choice([-1, 1])
        else:
            rest = rng.choice([rest[::-1], rest[:-1], rest + (v,), (v,) + rest])
        fam[k] = (head, rest)
    elif kind == 7 and fams:
        rng.choice([lambda: fams.pop(), lambda: fam.append((v, ())), fam.clear])()
    elif kind == 8:
        return _replace(ws, width_w=ws.width_w + rng.choice([-1, 1]))
    elif kind == 9 and fam and ws.witness_paths[i][k]:
        # the same path written out in full, which keeps a valid family valid
        path = ws.witness_paths[i][k]
        fam[k] = (path[0], path[1:])
    else:
        return _replace(ws, z_set=ws.z_set ^ {v})
    return _replace(ws, deltas=tuple(deltas), links=tuple(tuple(f) for f in fams))


def test_tamper_sweep_matches_flow_reference():
    rng = random.Random(5)
    seen = Counter()
    for i in range(600):
        n = rng.randint(3, 12)
        G = gnp_graph(n, rng.choice([0.2, 0.35, 0.5]), i) if i % 3 else random_tree(n, i)
        W = frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
        ws = build_w_sequence(G, W, rng.randint(1, len(W)))
        for _ in range(rng.randint(1, 2)):
            ws = tamper(ws, n, rng)
        want = flow_per_level_validator(G, ws)
        assert validate_w_sequence(G, ws) == want, (i, ws)
        seen.update(want[1] or ["ok"])
    assert set(seen) == {"ok", "nesting", "(a)", "(b)", "(c)", "(d)", "paths", "(e)"}, seen


def test_valid_sequence_needs_no_flow(monkeypatch):
    # a valid sequence's witness families prove (d) at every level
    G = path_graph(60)
    sequences = [build_w_sequence(G, {0}, 1), build_w_sequence(G, {5, 30}, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("validation induced a subgraph or ran a flow")

    monkeypatch.setattr(wsequence, "induced_subgraph", refuse)
    monkeypatch.setattr(wsequence, "disjoint_paths", refuse)
    for ws in sequences:
        assert validate_w_sequence(G, ws) == (True, [])


def load_corpus(monkeypatch):
    """perfbench/corpus.py as a fresh module, compiled in memory so that no
    bytecode cache is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    module = types.ModuleType("perfbench_corpus")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for its dataclass
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_construct_sequences_validate(monkeypatch):
    """Every W-sequence that construct builds validates, over the golden
    construct cases and the benchmark's sparse corpus at seeds 0-9."""
    real, built = wsequence.build_w_sequence, Counter()

    def checked(G, W, w):
        ws = real(G, W, w)
        assert validate_w_sequence(G, ws) == (True, [])
        built[len(W)] += 1
        return ws

    corpus = load_corpus(monkeypatch)
    monkeypatch.setattr(wsequence, "build_w_sequence", checked)
    runs = [(make(), a, marked) for make, a, marked in NODE_ID_CASES.values()]
    runs += [
        (inst.graph, inst.a, lambda G: {0})
        for seed in range(10) for inst in corpus.build("sparse", seed)
    ]
    for G, a, marked in runs:
        construct(G, a, marked(G))
    assert sum(built.values()) > 100 and max(built) >= 4
