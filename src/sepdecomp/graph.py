"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are always 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateEdgeError,
    InvalidSeparationError,
    SelfLoopError,
    VertexOutOfRangeError,
)

VertexSet = frozenset[int]


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    # per-vertex neighbor bitmasks, precomputed for the search kernels
    adj_masks: tuple[int, ...] = field(repr=False)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def full_mask(self) -> int:
        return (1 << self.n) - 1


@dataclass(frozen=True)
class Separation:
    a_side: VertexSet
    b_side: VertexSet

    @property
    def order(self) -> int:
        return len(self.a_side & self.b_side)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple undirected graph, rejecting loops and repeats."""
    adj: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n):
            raise VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError((u, v))
        if masks[u] >> v & 1:
            raise DuplicateEdgeError((u, v))
        adj[u].append(v)
        adj[v].append(u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        adj_masks=tuple(masks),
    )


def _check_vertices(G: Graph, S: Iterable[int]) -> VertexSet:
    S = frozenset(S)
    for v in S:
        if not (0 <= v < G.n):
            raise VertexOutOfRangeError(v, G.n)
    return S


def induced_subgraph(G: Graph, S: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on S, reindexed to 0..|S|-1.

    Returns the subgraph and the new-id -> old-id map (old -> new is its
    inverse; new ids follow the sorted order of S).
    """
    S = _check_vertices(G, S)
    old_ids = sorted(S)
    new_of_old = {old: new for new, old in enumerate(old_ids)}
    edges = [
        (new_of_old[u], new_of_old[v])
        for u in old_ids
        for v in G.adjacency[u]
        if u < v and v in S
    ]
    H = build_graph(len(old_ids), edges)
    return H, dict(enumerate(old_ids))


def component_mask(adj_masks: Sequence[int], universe: int, start: int) -> int:
    """Bitmask of the component of `start` inside `universe`."""
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj_masks[v]
        frontier = nxt & universe & ~comp
        comp |= frontier
    return comp


def components_in(adj_masks: Sequence[int], universe: int) -> list[int]:
    """Component masks inside `universe`, ordered by lowest vertex."""
    out = []
    rest = universe
    while rest:
        comp = component_mask(adj_masks, universe, (rest & -rest).bit_length() - 1)
        out.append(comp)
        rest &= ~comp
    return out


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


def mask_of(S: Iterable[int]) -> int:
    m = 0
    for v in S:
        m |= 1 << v
    return m


def _strict_sides(G: Graph, sep: Separation) -> Optional[tuple[int, int]]:
    """The strict sides A \\ B and B \\ A of `sep` as bitmasks, or None unless
    they cover V(G) with no edge between the strict sides."""
    A, B = _check_vertices(G, sep.a_side), _check_vertices(G, sep.b_side)
    a_only, b_mask = A - B, mask_of(B - A)
    if len(A | B) != G.n or any(G.adj_masks[u] & b_mask for u in a_only):
        return None
    return mask_of(a_only), b_mask


def is_separation(G: Graph, sep: Separation) -> bool:
    return _strict_sides(G, sep) is not None


def is_balanced(G: Graph, sep: Separation) -> bool:
    """Both strict sides hold at most 2n/3 vertices (exact arithmetic)."""
    return _balanced(G, sep, G.full_mask())


def is_w_balanced(G: Graph, sep: Separation, W: Iterable[int]) -> bool:
    """Both strict sides hold at most 2|W|/3 vertices of W."""
    return _balanced(G, sep, mask_of(_check_vertices(G, W)))


def _balanced(G: Graph, sep: Separation, w_mask: int) -> bool:
    sides = _strict_sides(G, sep)
    if sides is None:
        raise InvalidSeparationError(f"not a separation of G: {sep}")
    return all(3 * (s & w_mask).bit_count() <= 2 * w_mask.bit_count() for s in sides)
