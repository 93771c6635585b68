import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp import wsequence
from sepdecomp.errors import EmptyWError, PostconditionFailedError, WidthOutOfRangeError
from sepdecomp.generators import complete_graph, gnp_graph, path_graph
from sepdecomp.graph import build_graph
from sepdecomp.menger import PathResult
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
