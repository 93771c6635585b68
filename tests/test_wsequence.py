import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp import wsequence
from sepdecomp.errors import EmptyWError, PostconditionFailedError, WidthOutOfRangeError
from sepdecomp.generators import complete_graph, gnp_graph, path_graph
from sepdecomp.graph import build_graph, induced_subgraph
from sepdecomp.menger import PathResult, disjoint_paths, separates
from sepdecomp.wsequence import build_w_sequence, validate_w_sequence


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


class TestPostconditions:
    """A Menger separator that breaks the W-sequence's final condition
    raises a typed error (a plain assert would vanish under python -O)."""

    @pytest.mark.parametrize("bogus, message", [
        (frozenset({2, 3}), "separator of size 2 for 1 paths"),
        (frozenset({3}), "separator leaves the last layer"),
    ])
    def test_bad_separator(self, monkeypatch, bogus, message):
        real = wsequence.disjoint_paths

        def fake(G, S, T, cap):
            res = real(G, S, T, cap)
            return res if res.separator is None else PathResult(res.paths, bogus)

        monkeypatch.setattr(wsequence, "disjoint_paths", fake)
        # W = {0, 1} with 1 isolated: one path 2-0, so the last layer is
        # {0, 1, 2} and the true separator has size 1
        G = build_graph(4, [(0, 2), (2, 3)])
        with pytest.raises(PostconditionFailedError, match=f"build_w_sequence: {message}"):
            build_w_sequence(G, {0, 1}, 2)


# path 0-1-2-3-4-5 with W = {0, 2} and w = 2 gives the valid sequence
# levels {0,2} < {0,1,2,3} < {0,1,2,3,4}, Z = {4}, and witness paths
# ((0,), (2,)), ((1, 0), (3, 2)), ((4, 3, 2),)
L0, L1, L2 = frozenset({0, 2}), frozenset({0, 1, 2, 3}), frozenset(range(5))
P0, P2 = ((0,), (2,)), ((4, 3, 2),)
TAMPERS = {
    "short_sequence": ("nesting", {"levels": (L0,)}),
    "empty_w": ("(a)", {"levels": (frozenset(), L1, L2)}),
    "short_inner_layer": ("(b)", {"levels": (L0, frozenset({0, 1, 2}), L2)}),
    "full_last_layer": ("(c)", {"levels": (L0, L1, frozenset(range(6)))}),
    "unlinked_layer": ("(d)", {"levels": (L0, frozenset({0, 1, 2, 5}), frozenset(range(6)))}),
    "family_count": ("paths", {"witness_paths": (P0, ((1, 0), (3, 2)))}),
    "family_size": ("paths", {"witness_paths": (P0, ((1, 0),), P2)}),
    "wrong_start": ("paths", {"witness_paths": (P0, ((0, 1), (3, 2)), P2)}),
    "leaves_level": ("paths", {"witness_paths": (P0, ((1, 0), (3, 4, 3, 2)), P2)}),
    "paths_meet": ("paths", {"witness_paths": (P0, ((1, 2), (3, 2)), P2)}),
    "non_edge": ("paths", {"witness_paths": (P0, ((1, 2), (3, 0)), P2)}),
}


class TestValidateRejects:
    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_one_field_tampered(self, name):
        G = path_graph(6)
        ws = build_w_sequence(G, {0, 2}, 2)
        assert (ws.levels, ws.z_set) == ((L0, L1, L2), frozenset({4}))
        assert ws.witness_paths == (P0, ((1, 0), (3, 2)), P2)
        assert validate_w_sequence(G, ws) == (True, [])
        tag, change = TAMPERS[name]
        ok, tags = validate_w_sequence(G, dataclasses.replace(ws, **change))
        assert not ok and tag in tags

    def test_broken_nesting(self):
        G = path_graph(3)
        ws = build_w_sequence(G, {0}, 1)
        bad = type(ws)(
            levels=(ws.levels[0], frozenset({2})),
            width_w=1,
            z_set=frozenset(),
            witness_paths=ws.witness_paths[:2],
        )
        ok, tags = validate_w_sequence(G, bad)
        assert not ok and "nesting" in tags

    def test_wrong_z(self):
        G = path_graph(6)
        ws = build_w_sequence(G, {0, 2}, 2)
        bad = type(ws)(
            levels=ws.levels, width_w=ws.width_w,
            z_set=frozenset({0}), witness_paths=ws.witness_paths,
        )
        ok, tags = validate_w_sequence(G, bad)
        assert not ok and "(e)" in tags


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_sequences_validate(data):
    n = data.draw(st.integers(2, 9))
    seed = data.draw(st.integers(0, 10_000))
    G = gnp_graph(n, 0.4, seed)
    k = data.draw(st.integers(1, min(3, n)))
    W = frozenset(data.draw(st.permutations(range(n)))[:k])
    w = data.draw(st.integers(1, len(W)))
    ws = build_w_sequence(G, W, w)
    ok, tags = validate_w_sequence(G, ws)
    assert ok, tags
    assert ws.levels[0] == W and ws.width_w == w



@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tail_matches_full_sequence(data):
    """The tail that construct reads agrees with the witnessed sequence:
    in closed form for |W| = 1 (connected or not, W isolated or not), read
    from build_w_sequence for larger W."""
    n = data.draw(st.integers(1, 14))
    p = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.4]))
    G = gnp_graph(n, p, data.draw(st.integers(0, 10_000)))
    size = data.draw(st.sampled_from([1, 1, 1, 2, 3]))
    W = frozenset(data.draw(st.permutations(range(n)))[:size])
    ws = build_w_sequence(G, W, len(W))
    expected = (ws.levels[ws.ell], ws.levels[ws.ell + 1], ws.z_set, ws.ell == 0)
    assert wsequence._sequence_tail(G, W) == expected


def flow_per_level_validator(G, ws):
    """Reference for `validate_w_sequence`: (d) by a Menger flow inside
    G[W_i] at every level, and the witness families checked on their own."""
    violated = []
    levels = ws.levels
    if len(levels) < 2:
        return False, ["nesting"]
    if any(not lo <= hi for lo, hi in zip(levels, levels[1:])):
        violated.append("nesting")
    W, ell, sizes, deltas = levels[0], ws.ell, ws.sizes, ws.deltas
    if not W:
        violated.append("(a)")
    if any(sizes[i] != ws.width_w for i in range(1, ell + 1)):
        violated.append("(b)")
    if not 0 <= sizes[ell + 1] <= ws.width_w - 1:
        violated.append("(c)")
    for lvl, delta in zip(levels, deltas):
        if not W <= lvl:
            violated.append("(d)")
            break
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

    if len(ws.witness_paths) != len(levels) or not all(
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
    levels, fams = list(ws.levels), [list(f) for f in ws.witness_paths]
    i = rng.randrange(len(levels))
    v = rng.randrange(n)
    kind = rng.randrange(10)
    fam = fams[i] if i < len(fams) else []
    if kind == 0:
        levels[i] = levels[i] ^ {v}
    elif kind == 1:
        levels[i:] = [lvl | {v} for lvl in levels[i:]]
    elif kind == 2:
        levels[i] = frozenset()
    elif kind == 3:
        del levels[i]
    elif kind == 4:
        j = rng.randrange(len(levels))
        levels[i], levels[j] = levels[j], levels[i]
    elif kind == 5 and fam:
        k = rng.randrange(len(fam))
        path = list(fam[k])
        path[rng.randrange(len(path))] = v
        fam[k] = tuple(path)
    elif kind == 6 and fam:
        k = rng.randrange(len(fam))
        fam[k] = rng.choice([fam[k][::-1], fam[k][:-1], fam[k] + (v,)])
    elif kind == 7 and fams:
        rng.choice([lambda: fams.pop(), lambda: fam.append((v,)), fam.clear])()
    elif kind == 8:
        return dataclasses.replace(ws, width_w=ws.width_w + rng.choice([-1, 1]))
    else:
        return dataclasses.replace(ws, z_set=ws.z_set ^ {v})
    return dataclasses.replace(
        ws, levels=tuple(levels), witness_paths=tuple(tuple(f) for f in fams)
    )


def test_tamper_sweep_matches_flow_reference():
    rng = random.Random(5)
    seen = Counter()
    for i in range(600):
        n = rng.randint(3, 12)
        G = gnp_graph(n, rng.choice([0.2, 0.35, 0.5]), i)
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
