"""Vertex-disjoint S-T paths and matching minimum separators.

Unit-vertex-capacity max flow via vertex splitting with breadth-first
augmentation (Even & Tarjan 1975).  The split network is kept in flat
per-vertex arrays: a vertex carries at most one unit, so its flow is the
node feeding its in-copy and the node its out-copy feeds.  Each augmenting
search is O(n + m) and scans arcs in ascending split-node id, so the
returned paths and separator are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from .errors import InvalidInputError, PostconditionFailedError
from .graph import Graph, Record, VertexSet, _check_vertices, _checked_masks, _stz_sides


class PathResult(Record):
    __slots__ = _fields = ("paths", "separator")

    def __init__(self, paths: tuple[tuple[int, ...], ...], separator: Optional[VertexSet]):
        object.__setattr__(self, "paths", paths)  # each path's vertices, from S to T
        object.__setattr__(self, "separator", separator)


# Split-network node ids: 2v = v_in, 2v+1 = v_out, then source and sink.
# Arcs: v_in -> v_out (capacity 1); u_out -> v_in for every edge uv; source
# -> v_in for v in S; v_out -> sink for v in T.  Vertices in both S and T
# are length-0 paths and take no part in the network.
_NONE = -1  # no flow through the vertex; an unreached node
_REMOVED = -2  # marks the in-copy of a vertex of S & T as never reachable


def _augment(adj, fresh, sources, T, pred, succ) -> Optional[list[int]]:
    """One breadth-first search of the residual network from `fresh`, the
    initial parent array.

    On success, pushes a unit along the path found and returns None.  On
    failure, returns the search's parent array: the nodes it reached are
    those with a parent >= 0.
    """
    par = fresh[:]
    snk = len(par) - 1
    src = snk - 1
    queue = [2 * v for v in sources if pred[v] != src]
    for x in queue:
        par[x] = src
    push = queue.append
    for x in queue:
        v = x >> 1
        p = pred[v]
        if not x & 1:
            # v_in: with flow through v the only residual arc runs back to
            # the node feeding v_in, otherwise the only one is v_in -> v_out
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
        return par
    y = snk
    while y != src:
        x = par[y]
        if y == snk:
            succ[x >> 1] = snk
        elif not y & 1:
            u = y >> 1
            if x == y + 1:  # cancels the unit through u
                pred[u] = succ[u] = _NONE
            else:
                pred[u] = x
                if x != src:
                    succ[x >> 1] = y
        y = x
    return None


def disjoint_paths(G: Graph, S: Iterable[int], T: Iterable[int], cap: int) -> PathResult:
    """Up to `cap` pairwise vertex-disjoint S-T paths.

    Every vertex of S∩T yields a length-0 path (emitted first, ascending).
    When fewer than `cap` paths exist, a minimum separator of matching size
    is returned; it contains S∩T and removing it destroys all S-T paths.
    """
    if cap < 0:
        raise InvalidInputError(f"cap must be >= 0, got {cap}")
    S = _check_vertices(G, S)
    T = _check_vertices(G, T)
    common = sorted(S & T)
    if cap <= len(common):
        return PathResult(tuple((v,) for v in common[:cap]), None)
    n = G.n
    src = 2 * n
    snk = src + 1
    # pred[v]: node feeding v_in; succ[v]: node fed by v_out
    pred = [_NONE] * n
    succ = [_NONE] * n
    fresh = [_NONE] * (snk + 1)
    fresh[src] = src
    for v in common:
        fresh[2 * v] = _REMOVED
    sources = sorted(S.difference(common))
    T2 = T.difference(common)
    reach = None
    for _ in range(cap - len(common)):
        reach = _augment(G.adjacency, fresh, sources, T2, pred, succ)
        if reach is not None:
            break

    paths = [(v,) for v in common]
    for v in sources:
        if pred[v] != src:
            continue
        walk = [v]
        u = v
        while succ[u] != snk:
            if succ[u] == _NONE:
                raise PostconditionFailedError(
                    "disjoint_paths: flow decomposition lost a unit"
                )
            u = succ[u] >> 1
            walk.append(u)
        paths.append(tuple(walk))

    if reach is None:
        return PathResult(tuple(paths), None)

    # the last search's reach gives the minimum cut, hence the separator
    sep = set(common)
    for v in range(n):
        if reach[2 * v] >= 0 and reach[2 * v + 1] == _NONE:
            sep.add(v)
    for v in sources:
        if reach[2 * v] == _NONE and pred[v] == src:
            sep.add(v)
    if len(sep) != len(paths):
        raise PostconditionFailedError(
            f"disjoint_paths: min cut of size {len(sep)} does not certify "
            f"{len(paths)} paths"
        )
    return PathResult(tuple(paths), frozenset(sep))


def separates(G: Graph, Z: Iterable[int], S: Iterable[int], T: Iterable[int]) -> bool:
    """True iff every S-T path of G meets Z: no component of G - Z meets
    both S and T (a vertex of S & T outside Z is such a path)."""
    return _stz_sides(G, *_checked_masks(G, S, Z, T)) is not None
