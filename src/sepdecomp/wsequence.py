"""W-sequences: nested vertex sets linked to W by disjoint path families.

A W-sequence of width w is a chain W = W_0 ⊆ ... ⊆ W_{l+1} where each new
layer contributes exactly w fresh vertices linked to W by vertex-disjoint
paths inside the layer, the final layer contributes fewer than w, and a
separator of that final deficit size cuts everything beyond W_l off from W.
``construct`` reads only the tail of the sequence (``_sequence_tail``),
which for |W| = 1 needs no flow at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyWError, PostconditionFailedError, WidthOutOfRangeError
from .graph import (
    Graph,
    VertexSet,
    _check_vertices,
    component_mask,
    induced_subgraph,
    mask_vertices,
)
from .menger import disjoint_paths, separates


@dataclass(frozen=True)
class WSequence:
    levels: tuple[VertexSet, ...]  # W_0 .. W_{l+1}
    width_w: int
    z_set: VertexSet
    witness_paths: tuple[tuple[tuple[int, ...], ...], ...]  # per level: vertex tuples

    @property
    def ell(self) -> int:
        return len(self.levels) - 2

    @property
    def deltas(self) -> tuple[VertexSet, ...]:
        prev: VertexSet = frozenset()
        out = []
        for lvl in self.levels:
            out.append(lvl - prev)
            prev = lvl
        return tuple(out)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.deltas)


def build_w_sequence(G: Graph, W: Iterable[int], w: int) -> WSequence:
    """Construct a W-sequence of width w by repeated Menger applications.

    Each round finds up to w vertex-disjoint (V\\W_i)-W paths; the last
    vertex of each path outside W_i joins the next layer, with the tail of
    the path (trimmed at its first W vertex) as the linking witness.  A
    round with fewer than w paths ends the sequence; its minimum separator
    becomes Z.
    """
    W = _check_vertices(G, W)
    if not W:
        raise EmptyWError("W must be non-empty")
    if not (1 <= w <= len(W)):
        raise WidthOutOfRangeError(f"w must be in 1..|W|, got {w}")
    levels = [W]
    witness = [tuple((v,) for v in sorted(W))]
    current = set(W)
    while True:
        outside = frozenset(range(G.n)) - current
        res = disjoint_paths(G, outside, W, w)
        r = len(res.paths)
        if r < w:
            z = res.separator if res.separator is not None else frozenset()
            # r disjoint (V\W_l)-W paths each need a separator vertex, so a
            # size-r separator lives on them, inside W_{l+1}
            new_level, tails = _extend(current, res.paths, W)
            levels.append(frozenset(new_level))
            witness.append(tails)
            if len(z) != r:
                raise PostconditionFailedError(
                    f"build_w_sequence: separator of size {len(z)} for {r} paths"
                )
            if not z <= levels[-1]:
                raise PostconditionFailedError(
                    "build_w_sequence: separator leaves the last layer"
                )
            return WSequence(
                levels=tuple(levels), width_w=w, z_set=frozenset(z),
                witness_paths=tuple(witness),
            )
        new_level, tails = _extend(current, res.paths, W)
        current = new_level
        levels.append(frozenset(new_level))
        witness.append(tails)


def _sequence_tail(G: Graph, W: VertexSet) -> tuple[VertexSet, VertexSet, VertexSet, bool]:
    """(W_l, W_{l+1}, Z, l == 0) of the width-|W| W-sequence of W.

    With W = {v}, every round adds one vertex of v's component and the
    sequence ends when none is left, whatever paths the flow picks; so
    W_l = W_{l+1} = that component, Z is empty and l = 0 exactly when the
    component is {v}.  Larger W reads the tail of ``build_w_sequence``.
    """
    if len(W) == 1:
        (v,) = W
        comp = frozenset(mask_vertices(component_mask(G.adj_masks, G.full_mask(), v)))
        return comp, comp, frozenset(), len(comp) == 1
    ws = build_w_sequence(G, W, len(W))
    return ws.levels[ws.ell], ws.levels[ws.ell + 1], ws.z_set, ws.ell == 0


def _extend(current: set, paths, W: frozenset):
    new_level = set(current)
    tails = []
    for vs in paths:
        start = max(i for i, v in enumerate(vs) if v not in current)
        end = min(i for i, v in enumerate(vs) if i > start and v in W)
        new_level.add(vs[start])
        tails.append(vs[start : end + 1])
    return new_level, tuple(tails)


def validate_w_sequence(G: Graph, ws: WSequence) -> tuple[bool, list[str]]:
    """Re-verify every defining condition independently.

    Returns (ok, violated tags).  Tags: nesting, (a)-(e), paths (structural
    checks on the stored witness paths).  A level's witness family, when it
    passes those checks, is |Δ_i| disjoint Δ_i-W paths inside G[W_i] and so
    proves (d) there; only a level whose family fails gets a flow.
    """
    violated: list[str] = []
    levels = ws.levels
    if len(levels) < 2:
        violated.append("nesting")
        return False, violated
    _check_vertices(G, frozenset().union(*levels))
    for lo, hi in zip(levels, levels[1:]):
        if not lo <= hi:
            violated.append("nesting")
            break
    W = levels[0]
    ell = ws.ell
    sizes = ws.sizes
    if not W:
        violated.append("(a)")
    if any(sizes[i] != ws.width_w for i in range(1, ell + 1)):
        violated.append("(b)")
    if not (0 <= sizes[ell + 1] <= ws.width_w - 1):
        violated.append("(c)")
    families = ws.witness_paths
    paths_ok = len(families) == len(levels)
    d_ok = True
    for i, (lvl, delta) in enumerate(zip(levels, ws.deltas)):
        linked = i < len(families) and _linked(G, W, lvl, delta, families[i])
        paths_ok &= linked
        if d_ok and not W <= lvl:
            d_ok = False
        elif d_ok and not linked:
            # (d): the flow value inside G[W_i] must reach |Δ_i|
            H, new_to_old = induced_subgraph(G, lvl)
            old_to_new = {o: n for n, o in new_to_old.items()}
            res = disjoint_paths(
                H, [old_to_new[v] for v in delta], [old_to_new[v] for v in W],
                cap=len(delta),
            )
            d_ok = len(res.paths) == len(delta)
    if not d_ok:
        violated.append("(d)")
    if not paths_ok:
        violated.append("paths")
    z = ws.z_set
    if (
        len(z) != sizes[ell + 1]
        or not z <= levels[ell + 1]
        or not separates(G, z, frozenset(range(G.n)) - levels[ell], W)
    ):
        violated.append("(e)")
    return not violated, violated


def _linked(G: Graph, W: VertexSet, lvl: VertexSet, delta: VertexSet, fam) -> bool:
    """Is `fam` |delta| disjoint paths of G inside lvl, each from delta to W?"""
    if len(fam) != len(delta):
        return False
    used: set[int] = set()
    adj = G.adj_masks
    for vs in fam:
        if not vs or vs[0] not in delta or vs[-1] not in W or not lvl.issuperset(vs):
            return False
        if len(set(vs)) != len(vs) or not used.isdisjoint(vs):
            return False
        if not all(adj[u] >> v & 1 for u, v in zip(vs, vs[1:])):
            return False
        used.update(vs)
    return True
