"""Vertex-disjoint S-T paths and matching minimum separators.

Unit-vertex-capacity max flow via vertex splitting with breadth-first
augmentation (Even & Tarjan 1975).  The split network is kept in flat
per-vertex arrays: a vertex carries at most one unit, so its flow is the
node feeding its in-copy and the node its out-copy feeds.  Each augmenting
search is O(n + m) and scans arcs in ascending split-node id, so the
returned paths and separator are deterministic.  A vertex of both S and T
carries a length-0 unit from the start, as a vertex of W does in a
W-sequence.  A caller may keep a flow in those arrays and change it in
place: ``_complete``, the one forward search, augments it to a maximum flow
and returns the minimum cut, and ``_reroot`` moves one unit's start by a
backward search that stops at the first free vertex it meets, so its cost
is the part of the residual network it explores.  ``_unit`` is the one
walk that reads a unit's vertices off the arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from .errors import PostconditionFailedError
from .graph import (Graph, Record, _check_order, _check_vertices, _checked_masks, _stz_sides,
                    components_in)


class PathResult(Record):
    __slots__ = _fields = ("paths", "separator")  # paths: each path's vertices, from S to T


# Split-network node ids: 2v = v_in, 2v+1 = v_out, then source and sink.
# Arcs: v_in -> v_out (capacity 1); u_out -> v_in for every edge uv; source
# -> v_in for v in S; v_out -> sink for v in T.  A vertex of both S and T
# carries a length-0 unit, source -> v_in -> v_out -> sink: a search that
# reaches its in-copy can only go back to the source, so none crosses it.
_NONE = -1  # no flow through the vertex; an unreached node


def _push(arcs, pred, succ) -> None:
    """Push one unit along the arcs (tail, head) of a residual path, in any
    order: a forward arc into v_in sets v's feeder and its tail's target, a
    reverse arc v_out -> v_in cancels v's unit, and an arc into the sink
    ends its tail's unit there."""
    snk = 2 * len(pred) + 1
    for x, y in arcs:
        if y == snk:
            succ[x >> 1] = snk
        elif not y & 1:
            u = y >> 1
            if x == y + 1:
                pred[u] = succ[u] = _NONE
            else:
                pred[u] = x
                if x != snk - 1:
                    succ[x >> 1] = y


def _unit(v: int, succ: list[int]) -> tuple[int, ...]:
    """The vertices of the flow's unit from v to its end."""
    snk = 2 * len(succ) + 1
    vs = [v]
    while (x := succ[vs[-1]]) != snk:
        if x == _NONE:
            raise PostconditionFailedError("_unit: flow decomposition lost a unit")
        vs.append(x >> 1)
    return tuple(vs)


def _complete(adj, sources, T, pred, succ, more: int) -> Optional[set[int]]:
    """Push up to `more` further units into the flow held in pred/succ,
    from `sources` (ascending) to T, one breadth-first search of the
    residual network per unit.  Returns the minimum cut's vertices once a
    search fails, None if all `more` units went through."""
    n = len(pred)
    src, snk = 2 * n, 2 * n + 1
    for _ in range(more):
        par = [_NONE] * (snk + 1)  # each reached node's parent in the search
        par[src] = src
        queue = [2 * v for v in sources if pred[v] != src]
        for x in queue:
            par[x] = src
        push = queue.append
        for x in queue:
            v = x >> 1
            p = pred[v]
            if not x & 1:
                # v_in: with flow through v the only residual arc runs back
                # to the node feeding v_in, otherwise the only one is
                # v_in -> v_out
                y = x + 1 if p == _NONE else p
                if par[y] == _NONE:
                    par[y] = x
                    push(y)
                continue
            nbrs = adj[v]
            if p != _NONE:  # residual v_out -> v_in sits among the u_in
                k = bisect_left(nbrs, v)
                nbrs = nbrs[:k] + (v,) + nbrs[k:]
            for u in nbrs:
                y = 2 * u
                if par[y] == _NONE:
                    par[y] = x
                    push(y)
            if v in T and succ[v] != snk:
                par[snk] = x
                break
        else:
            # the cut: each vertex whose in-copy the failed search reached
            # and out-copy it did not, and each source behind a saturated
            # source arc
            cut = {v for v in range(n) if par[2 * v] >= 0 and par[2 * v + 1] == _NONE}
            cut.update(v for v in sources if par[2 * v] == _NONE and pred[v] == src)
            return cut
        path = [snk]
        while path[-1] != src:
            path.append(par[path[-1]])
        _push(zip(path[1:], path), pred, succ)
    return None


def _reroot(adj, x: int, free: int, T: tuple[int, ...], pred, succ) -> Optional[list[int]]:
    """Move the unit that starts at x onto a start in `free`, keeping the
    flow's value: search the residual network backwards from x_in,
    breadth-first, for the first out-copy of a vertex in `free` (a mask of
    vertices that carry no flow), and push a unit along the path found, the
    source arc into x_in giving way.  Returns that path's nodes from the
    source on, or None if no vertex of `free` reaches x_in.

    Backwards, v_in is entered from v_out when v carries flow, then from
    the out-copies of v's neighbours in ascending id, but not the one
    feeding it; v_out from v_in, or from the node it feeds when v carries
    flow; the sink from the out-copies of T that do not end a unit.
    """
    snk = 2 * len(pred) + 1
    start = 2 * x
    nxt = {start: _NONE}  # reached node -> the next node of its path to x_in
    queue = [start]
    push = queue.append
    for y in queue:
        v = y >> 1
        if y & 1:  # v_out or the sink, entered from nodes of no free vertex
            if y != snk:
                before = (y - 1 if pred[v] == _NONE else succ[v],)
            else:
                before = [2 * t + 1 for t in T if succ[t] != snk]
            for z in before:
                if z not in nxt:
                    nxt[z] = y
                    push(z)
            continue
        p = pred[v]
        if p != _NONE and y + 1 not in nxt:
            nxt[y + 1] = y
            push(y + 1)
        for u in adj[v]:
            z = 2 * u + 1
            if z == p or z in nxt:
                continue
            nxt[z] = y
            if free >> u & 1:
                path = [snk - 1, z - 1, z]
                while path[-1] != start:
                    path.append(nxt[path[-1]])
                _push(zip(path, path[1:]), pred, succ)
                return path
            push(z)
    return None


def disjoint_paths(G: Graph, S: Iterable[int], T: Iterable[int], cap: int) -> PathResult:
    """Up to `cap` pairwise vertex-disjoint S-T paths.

    Every vertex of S∩T yields a length-0 path (emitted first, ascending).
    When fewer than `cap` paths exist, a minimum separator of matching size
    is returned; it contains S∩T and removing it destroys all S-T paths.
    """
    _check_order("disjoint_paths", "cap", cap, 0)
    S = _check_vertices(G, S)
    T = _check_vertices(G, T)
    common = sorted(S & T)
    if cap <= len(common):
        return PathResult(tuple((v,) for v in common[:cap]), None)
    # pred[v]: node feeding v_in; succ[v]: node fed by v_out
    pred = [_NONE] * G.n
    succ = [_NONE] * G.n
    src, snk = 2 * G.n, 2 * G.n + 1
    for v in common:
        pred[v], succ[v] = src, snk
    sources = sorted(S)
    sep = _complete(G.adjacency, sources, T, pred, succ, cap - len(common))
    # the length-0 units first, then the units that leave their source
    starts = common + [v for v in sources if pred[v] == src and succ[v] != snk]
    paths = tuple(_unit(v, succ) for v in starts)
    if sep is None:
        return PathResult(paths, None)
    if len(sep) != len(paths):
        raise PostconditionFailedError(
            f"disjoint_paths: min cut of size {len(sep)} does not certify "
            f"{len(paths)} paths"
        )
    return PathResult(paths, frozenset(sep))


def separates(G: Graph, Z: Iterable[int], S: Iterable[int], T: Iterable[int]) -> bool:
    """True iff every S-T path of G meets Z: no component of G - Z meets
    both S and T (a vertex of S & T outside Z is such a path)."""
    s_mask, z_mask, t_mask = _checked_masks(G, S, Z, T)
    comps = components_in(G.adj_masks, G.full_mask() & ~z_mask)
    return _stz_sides(comps, s_mask, z_mask, t_mask) is not None
