"""W-sequences: nested vertex sets linked to W by disjoint path families.

A W-sequence of width w is a chain W = W_0 ⊆ ... ⊆ W_{l+1} where each new
layer contributes exactly w fresh vertices linked to W by vertex-disjoint
paths inside the layer, the final layer contributes fewer than w, and a
separator of that final deficit size cuts everything beyond W_l off from W.
A round starts warm: it extends the last round's paths by a vertex each and
runs a Menger flow only when it cannot.  Each witness is kept as a link to
the path it extends, so a sequence takes linear memory.  ``construct`` reads
only the tail (``_sequence_tail``), which for |W| = 1 needs no flow.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Iterable, Optional

from .errors import EmptyWError, PostconditionFailedError, WidthOutOfRangeError
from .graph import (
    Graph,
    Record,
    VertexSet,
    _check_vertices,
    component_mask,
    induced_subgraph,
    mask_of,
    mask_vertices,
)
from .menger import disjoint_paths, separates

# (v, j): v, then path j of the level before; (v, rest): the path (v, *rest)
Link = tuple[int, int | tuple[int, ...]]


class WSequence(Record):
    __slots__ = _fields = ("deltas", "width_w", "z_set", "links")

    def __init__(self, deltas: tuple[VertexSet, ...], width_w: int, z_set: VertexSet,
                 links: tuple[tuple[Link, ...], ...]):
        object.__setattr__(self, "deltas", deltas)  # Δ_0 = W, then each level's new vertices
        object.__setattr__(self, "width_w", width_w)
        object.__setattr__(self, "z_set", z_set)
        object.__setattr__(self, "links", links)  # per level, one link per witness path

    @property
    def ell(self) -> int:
        return len(self.deltas) - 2

    @property
    def levels(self) -> tuple[VertexSet, ...]:
        return tuple(accumulate(self.deltas, or_))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.deltas))

    @property
    def witness_paths(self) -> tuple[tuple[Optional[tuple[int, ...]], ...], ...]:
        # per level, the paths written out; None for a link to no path
        links = self.links
        return tuple(tuple(_path(links, i, k) for k in range(len(f))) for i, f in enumerate(links))


def build_w_sequence(G: Graph, W: Iterable[int], w: int) -> WSequence:
    """Construct a W-sequence of width w.

    Each round adds the last vertex outside W_i of w disjoint (V\\W_i)-W
    paths, linked to W by the rest of its path.  It first extends the last
    round's paths (W's own vertices when w = |W|), each by its head's
    lowest-id neighbour outside W_{i+1} not yet taken, and runs a Menger
    flow only when some head has none.  A flow with fewer than w paths
    ends the sequence; its minimum separator becomes Z.
    """
    W = _check_vertices(G, W)
    if not W:
        raise EmptyWError("W must be non-empty")
    if not (1 <= w <= len(W)):
        raise WidthOutOfRangeError(f"w must be in 1..|W|, got {w}")
    adj = G.adjacency
    outside = G.full_mask() & ~mask_of(W)  # V \ W_i
    deltas = [W]
    links: list[tuple[Link, ...]] = [tuple((v, ()) for v in sorted(W))]
    heads = sorted(W) if w == len(W) else []  # the new vertex of each path to extend
    while True:
        free = outside
        step: list[Link] = []
        for j, x in enumerate(heads):
            y = next((u for u in adj[x] if free >> u & 1), None)
            if y is None:
                break
            free ^= 1 << y
            step.append((y, j))
        if heads and len(step) == len(heads):
            outside = free
        else:
            res = disjoint_paths(G, mask_vertices(outside), W, w)
            step = [_trim(vs, outside, W) for vs in res.paths]
            outside &= ~mask_of(v for v, _ in step)
        heads = [v for v, _ in step]
        deltas.append(frozenset(heads))
        links.append(tuple(step))
        if len(step) == w:
            continue  # an extension keeps all w paths, so only a flow ends here
        # r disjoint (V\W_l)-W paths each need a separator vertex, so a
        # size-r separator lives on them, inside W_{l+1}
        z = res.separator or frozenset()
        if len(z) != len(step):
            raise PostconditionFailedError(
                f"build_w_sequence: separator of size {len(z)} for {len(step)} paths"
            )
        if mask_of(z) & outside:
            raise PostconditionFailedError("build_w_sequence: separator leaves the last layer")
        return WSequence(deltas=tuple(deltas), width_w=w, z_set=z, links=tuple(links))


def _trim(vs: tuple[int, ...], outside: int, W: VertexSet) -> Link:
    """(last vertex of vs outside W_i, the rest of vs up to its next W vertex)."""
    start = max(i for i, v in enumerate(vs) if outside >> v & 1)
    end = min(i for i, v in enumerate(vs) if i > start and v in W)
    return vs[start], vs[start + 1 : end + 1]


def _path(links: tuple[tuple[Link, ...], ...], i: int, k: int) -> Optional[tuple[int, ...]]:
    out = []
    while 0 <= i < len(links) and 0 <= k < len(links[i]):
        v, rest = links[i][k]
        out.append(v)
        if not isinstance(rest, int):
            return (*out, *rest)
        i, k = i - 1, rest
    return None


def _sequence_tail(G: Graph, w_mask: int) -> tuple[int, int, int, bool]:
    """(W_l, W_{l+1}, Z, l == 0) of the width-|W| W-sequence of W, as masks.

    With W = {v}, every round adds one vertex of v's component and the
    sequence ends when none is left, whatever paths it picks; so
    W_l = W_{l+1} = that component, Z is empty and l = 0 exactly when the
    component is {v}.  Larger W reads the tail of ``build_w_sequence``.
    """
    if w_mask.bit_count() == 1:
        comp = component_mask(G.adj_masks, G.full_mask(), w_mask.bit_length() - 1)
        return comp, comp, 0, comp == w_mask
    ws = build_w_sequence(G, mask_vertices(w_mask), w_mask.bit_count())
    top = mask_of(v for delta in ws.deltas for v in delta)
    return top & ~mask_of(ws.deltas[-1]), top, mask_of(ws.z_set), ws.ell == 0


def validate_w_sequence(G: Graph, ws: WSequence) -> tuple[bool, list[str]]:
    """Re-verify every defining condition independently.

    Returns (ok, violated tags).  Tags: nesting (fewer than two levels, or
    a Δ_i meeting W_{i-1}), (a)-(e), paths (the witness links; a link onto a
    checked path costs O(1) bit tests).  A level's family, when it passes, is
    |Δ_i| disjoint Δ_i-W paths inside G[W_i] and so proves (d) there.
    """
    deltas, links = ws.deltas, ws.links
    if len(deltas) < 2:
        return False, ["nesting"]
    _check_vertices(G, frozenset().union(*deltas))
    W, ell, sizes = deltas[0], ws.ell, ws.sizes
    n, adj, w_mask = G.n, G.adj_masks, mask_of(W)
    nested = d_ok = True
    paths_ok = len(links) == len(deltas)
    lvls: list[int] = []  # W_i as masks
    prev: list[tuple[int, int, bool]] = []  # per path of level i-1: (head, mask, valid)
    for i, delta in enumerate(deltas):
        d_mask = mask_of(delta)
        nested &= not (lvls and lvls[-1] & d_mask)
        lvls.append(d_mask | (lvls[-1] if lvls else 0))
        fam = links[i] if i < len(links) else ()
        linked = len(fam) == len(delta)
        cur, used = [], 0
        for v, rest in fam:
            if isinstance(rest, int):
                h, m, ok = prev[rest] if 0 <= rest < len(prev) else (0, 0, False)
                ok = ok and 0 <= v < n and not m >> v & 1 and adj[v] >> h & 1
                m = m | 1 << v if ok else 0
            else:
                vs = (v, *rest)
                ok = all(0 <= u < n for u in vs)
                m = mask_of(vs) if ok else 0
                ok = ok and m.bit_count() == len(vs) and w_mask >> vs[-1] & 1
                ok = ok and all(adj[a] >> b & 1 for a, b in zip(vs, vs[1:]))
            cur.append((v, m, ok))
            linked = linked and ok and v in delta and not m & ~lvls[i] and not m & used
            used |= m
        prev = cur
        paths_ok &= linked
        if d_ok and not linked:
            # (d): the flow value inside G[W_i] must reach |Δ_i|
            H, new_to_old = induced_subgraph(G, mask_vertices(lvls[i]))
            old_to_new = {o: k for k, o in new_to_old.items()}
            res = disjoint_paths(
                H, [old_to_new[v] for v in delta], [old_to_new[v] for v in W],
                cap=len(delta),
            )
            d_ok = len(res.paths) == len(delta)
    z = ws.z_set
    violated = [tag for tag, holds in (
        ("nesting", nested),
        ("(a)", W),
        ("(b)", all(sizes[i] == ws.width_w for i in range(1, ell + 1))),
        ("(c)", 0 <= sizes[ell + 1] <= ws.width_w - 1),
        ("(d)", d_ok),
        ("paths", paths_ok),
        ("(e)", len(z) == sizes[ell + 1] and all(0 <= v and lvls[ell + 1] >> v & 1 for v in z)
            and separates(G, z, mask_vertices(G.full_mask() & ~lvls[ell]), W)),
    ) if not holds]
    return not violated, violated
