"""W-sequences: nested vertex sets linked to W by disjoint path families.

A W-sequence of width w is a chain W = W_0 ⊆ ... ⊆ W_{l+1} where each new
layer contributes exactly w fresh vertices linked to W by vertex-disjoint
paths inside the layer, the final layer contributes fewer than w, and a
separator of that final deficit size cuts everything beyond W_l off from W.
The rounds keep their w paths as one unit flow of ``menger``'s split
network for the whole sequence: a round extends each path by a vertex,
re-roots a path whose head has no free neighbour by one local search of the
residual network, and once a path cannot be re-rooted, completes the flow to
a maximum one, whose minimum cut is Z.  Each witness is kept as a link to
the path it extends, so a sequence takes linear memory.  ``construct``
reads only the tail and the components of G - Z (``_sequence_tail``), which
for |W| = 1 come from one component search and no flow.
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
    _check_order,
    _check_vertices,
    components_in,
    induced_subgraph,
    mask_of,
    mask_vertices,
)
from .menger import _NONE, _complete, _reroot, _unit, disjoint_paths, separates

# (v, j): v, then path j of the level before; (v, rest): the path (v, *rest)
Link = tuple[int, int | tuple[int, ...]]


class WSequence(Record):
    # deltas: Δ_0 = W, then each level's new vertices; links: per level, one
    # link per witness path
    __slots__ = _fields = ("deltas", "width_w", "z_set", "links")

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

    Each round adds the head, the last vertex outside W_i, of each of w
    disjoint (V\\W_i)-W paths, linked to W by the rest of its path.  The
    paths are one unit flow to W, kept across rounds and starting at their
    heads; the first round's are W's own vertices when w = |W|.  A round
    extends each path whose head has a neighbour outside W_{i+1} not yet
    taken by the lowest-id one, then re-roots each other path by
    ``menger._reroot``.  A path that cannot be re-rooted shows that fewer
    than w paths exist: the paths still at their old heads are dropped and
    the rest completed to a maximum flow (from nothing when w < |W|), whose
    paths form the last layer and whose minimum cut becomes Z.  Only the
    paths a re-rooting changed are written out; the others stay links.
    """
    _check_order("build_w_sequence", "w", w)
    W = _check_vertices(G, W)
    if not W:
        raise EmptyWError("W must be non-empty")
    if not (1 <= w <= len(W)):
        raise WidthOutOfRangeError(f"w must be in 1..|W|, got {w}")
    masks, n = G.adj_masks, G.n
    src, snk = 2 * n, 2 * n + 1
    T = tuple(sorted(W))
    outside = G.full_mask() & ~mask_of(W)  # V \ W_i
    deltas = [W]
    links: list[list[Link]] = [[(v, ()) for v in T]]
    # menger's split network: pred[v] feeds v_in, v_out feeds succ[v]
    pred, succ = [_NONE] * n, [_NONE] * n
    heads, ends = [], []  # each path's head and its vertex in W
    if w == len(W):
        for v in T:
            pred[v], succ[v] = src, snk
        heads, ends = list(T), list(T)
    while True:
        free = outside
        step, stuck = [], []
        for j, x in enumerate(heads):
            cand = masks[x] & free
            if not cand:
                stuck.append(j)
                step.append(None)
                continue
            y = (cand & -cand).bit_length() - 1
            free ^= 1 << y
            pred[y], succ[y], pred[x] = src, 2 * x, 2 * y + 1
            step.append((y, j))
        missing = w - len(heads)
        touched: set[int] = set()  # the vertices of the re-rooting paths
        for k, j in enumerate(stuck):
            path = _reroot(G.adjacency, heads[j], free, T, pred, succ) if free else None
            if path is None:
                # w disjoint paths from V \ W_{i+1} would lead a free
                # vertex to this head, so fewer exist: drop the paths still
                # at old heads
                for x in (heads[j] for j in stuck[k:]):
                    for v in _unit(x, succ):
                        pred[v] = succ[v] = _NONE
                missing = len(stuck) - k
                break
            v = path[1] >> 1
            free ^= 1 << v
            step[j] = (v, None)
            touched.update(y >> 1 for y in path[1:] if y != snk)
        if missing:
            # complete the flow from V \ W_{i+1} to a maximum one; with no
            # free vertex its search starts nowhere and reads no neighbour
            # lists, which then need not be built
            sources = mask_vertices(outside)
            z = _complete(G.adjacency if free else (), sources, W, pred, succ, missing)
            # each search queues every free source first, so a path found
            # enters no source but its first: each path starts at its head
            step = [(v, _unit(v, succ)[1:]) for v in sources if pred[v] == src]
            ends = [rest[-1] for _, rest in step]
            free = outside & ~mask_of(v for v, _ in step)
        elif touched:
            # hit: the re-rooting paths' vertices and those after them on
            # a unit; a path whose old vertex in W is not hit is its old
            # path behind its new head
            hit = set(touched)
            for u in touched:
                while pred[u] != _NONE and succ[u] != snk and succ[u] >> 1 not in hit:
                    u = succ[u] >> 1
                    hit.add(u)
            for j, (v, rest) in enumerate(step):
                if rest is None or ends[j] in hit:
                    vs = _unit(v, succ)
                    step[j], ends[j] = (v, vs[1:]), vs[-1]
        heads = [v for v, _ in step]
        deltas.append(frozenset(heads))
        links.append(step)
        if len(heads) < w:
            break
        outside = free
    # the r < w last paths each need a vertex of a minimum cut, so a
    # size-r cut lives on them, inside W_{l+1}
    if len(z) != len(heads):
        raise PostconditionFailedError(
            f"build_w_sequence: separator of size {len(z)} for {len(heads)} paths"
        )
    if mask_of(z) & free:  # free: V \ W_{l+1}
        raise PostconditionFailedError("build_w_sequence: separator leaves the last layer")
    return WSequence(tuple(deltas), w, frozenset(z), tuple(map(tuple, links)))


def _path(links: tuple[tuple[Link, ...], ...], i: int, k: int) -> Optional[tuple[int, ...]]:
    out = []
    while 0 <= i < len(links) and 0 <= k < len(links[i]):
        v, rest = links[i][k]
        out.append(v)
        if not isinstance(rest, int):
            return (*out, *rest)
        i, k = i - 1, rest
    return None


def _sequence_tail(G: Graph, w_mask: int) -> tuple[int, int, int, bool, list[int]]:
    """(W_l, W_{l+1}, Z, l == 0) of the width-|W| W-sequence of W, as masks,
    and the components of G - Z (``components_in``), which split G along Z.

    With W = {v}, every round adds one vertex of v's component and the
    sequence ends when none is left, whatever paths it picks; so
    W_l = W_{l+1} = that component, Z is empty and l = 0 exactly when the
    component is {v}: one component search of G gives all five.  Larger W
    reads the tail of ``build_w_sequence``.
    """
    if w_mask.bit_count() == 1:
        comps = components_in(G.adj_masks, G.full_mask())
        comp = next(c for c in comps if c & w_mask)
        return comp, comp, 0, comp == w_mask, comps
    ws = build_w_sequence(G, mask_vertices(w_mask), w_mask.bit_count())
    top = mask_of(v for delta in ws.deltas for v in delta)
    z = mask_of(ws.z_set)
    comps = components_in(G.adj_masks, G.full_mask() & ~z)
    return top & ~mask_of(ws.deltas[-1]), top, z, ws.ell == 0, comps


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
