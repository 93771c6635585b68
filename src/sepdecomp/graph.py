"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are always 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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

    def vertices(self) -> range:
        return range(self.n)

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

    @property
    def separator(self) -> VertexSet:
        return self.a_side & self.b_side


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


def components(G: Graph) -> list[VertexSet]:
    """Connected components, each a frozenset, ordered by smallest member."""
    return [frozenset(mask_vertices(c)) for c in components_in(G.adj_masks, G.full_mask())]


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


def check_separation(G: Graph, A: Iterable[int], B: Iterable[int]) -> tuple[bool, int]:
    """Whether (A, B) is a separation of G; the order |A∩B| is reported
    regardless of validity."""
    A = _check_vertices(G, A)
    B = _check_vertices(G, B)
    order = len(A & B)
    if A | B != frozenset(range(G.n)):
        return False, order
    b_only = mask_of(B - A)
    for u in A - B:
        if G.adj_masks[u] & b_only:
            return False, order
    return True, order


def is_separation(G: Graph, sep: Separation) -> bool:
    return check_separation(G, sep.a_side, sep.b_side)[0]


def is_balanced(G: Graph, sep: Separation) -> bool:
    """Both strict sides hold at most 2n/3 vertices (exact arithmetic)."""
    if not is_separation(G, sep):
        raise InvalidSeparationError(f"not a separation of G: {sep}")
    a_only = len(sep.a_side - sep.b_side)
    b_only = len(sep.b_side - sep.a_side)
    return 3 * a_only <= 2 * G.n and 3 * b_only <= 2 * G.n


def is_w_balanced(G: Graph, sep: Separation, W: Iterable[int]) -> bool:
    """Both strict sides hold at most 2|W|/3 vertices of W."""
    W = _check_vertices(G, W)
    if not is_separation(G, sep):
        raise InvalidSeparationError(f"not a separation of G: {sep}")
    a_w = len((sep.a_side - sep.b_side) & W)
    b_w = len((sep.b_side - sep.a_side) & W)
    return 3 * a_w <= 2 * len(W) and 3 * b_w <= 2 * len(W)
