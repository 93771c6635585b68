"""Balanced-separation oracles and (S,Z,T)-separations.

Exact searches enumerate candidate separators by increasing size; whether a
separator admits a balanced assignment of the remaining components is a
subset-sum question, answered in the kernels.  Their tie-break:
smallest order, then the first separator in ``itertools.combinations``
order (lexicographically smallest), then a greedy A side: walk the
components of G - Z in order of lowest vertex and take each one when a
balanced completion still exists with it, stopping as soon as the sides
balance.  That A side is not always the lexicographically smallest one.

Past the exact search's budget, a deterministic cutter proposes separators
(the empty set, the centroid bag of a min-degree elimination forest, the
first ceil(n/3) vertices, then min cuts between growing BFS balls) and
groups the components each leaves with the same greedy A side.  It returns
the first that balances with order <= a, and its misses are not
certificates.  Nothing here draws randomness.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import comb
from typing import Iterable, Optional

from . import kernels
from .errors import (
    NotSeparatedError,
    PostconditionFailedError,
    SizeLimitExceededError,
)
from .graph import (
    Graph,
    Record,
    Separation,
    _check_order,
    _check_vertices,
    _checked_masks,
    _stz_sides,
    components_in,
    mask_of,
    mask_vertices,
)
from .menger import disjoint_paths

EXACT_LIMIT_SEPARATION = 20
EXACT_LIMIT_SEP_NUMBER = 14
CANDIDATE_BUDGET = 2_000_000


class SeparatorOracleOutcome(Record):
    """An oracle's answer for the graph it was handed: the sides
    ``(a_mask, b_mask)`` of a balanced separation of order <= a, as bitmasks
    in that graph's ids, or None.

    ``certified`` tells whether a missing separation is a proof that the
    graph has none (exhaustive search) or merely a heuristic giving up.
    """

    __slots__ = _fields = ("sides", "certified")

    @property
    def found(self) -> bool:
        return self.sides is not None

    @property
    def separation(self) -> Optional[Separation]:
        return None if self.sides is None else _separation_of(self.sides)


def _sides(G: Graph, z_mask: int, a_mask: int) -> tuple[int, int]:
    """The sides (A, B) of the separation with separator Z and A side A."""
    return a_mask, (G.full_mask() & ~a_mask) | z_mask


def _separation_of(sides: tuple[int, int]) -> Separation:
    return Separation(*(frozenset(mask_vertices(m)) for m in sides))


def stz_separation(G: Graph, S: Iterable[int], Z: Iterable[int], T: Iterable[int]) -> Separation:
    """The canonical (S,Z,T)-separation: X collects the components of G-Z
    that meet S (plus Z), Y collects the rest (plus Z).  Raises
    NotSeparatedError unless Z separates S from T."""
    s_mask, z_mask, t_mask = _checked_masks(G, S, Z, T)
    comps = components_in(G.adj_masks, G.full_mask() & ~z_mask)
    sides = _stz_sides(comps, s_mask, z_mask, t_mask)
    if sides is None:
        raise NotSeparatedError(f"Z={mask_vertices(z_mask)} does not separate S and T")
    return _separation_of(sides)


def min_balanced_separation(G: Graph) -> Separation:
    """Minimum-order balanced separation, by exhaustive separator search
    (n <= EXACT_LIMIT_SEPARATION)."""
    if G.n > EXACT_LIMIT_SEPARATION:
        raise SizeLimitExceededError(G.n, EXACT_LIMIT_SEPARATION, "min_balanced_separation")
    found = kernels.min_balanced_separation(G.n, G.adj_masks, G.n)
    if found is None:
        raise PostconditionFailedError(
            "min_balanced_separation: no balanced separation of order <= n, "
            "although (V, V) is one"
        )
    _, z_mask, a_mask = found
    return _separation_of(_sides(G, z_mask, a_mask))


def _bounded_candidates(n: int, a: int) -> int:
    return sum(comb(n, k) for k in range(min(a, n) + 1))


def balanced_separation_within(G: Graph, a: int) -> SeparatorOracleOutcome:
    """Balanced separation of order <= a, or None.

    The exact (certifying) search runs exactly when the number of candidate
    separators of size <= a is within CANDIDATE_BUDGET (the search need not
    look past order a, so it stays exact on large graphs with small a, and
    every graph with n <= 20 fits, as 2^20 < CANDIDATE_BUDGET).  Otherwise a
    deterministic cutter tries a few candidate separators (the empty set,
    the centroid bag of a min-degree elimination forest, the first ceil(n/3)
    vertices, min cuts between growing BFS balls) and groups the components
    left by each with the exact search's greedy; a separation is returned
    only once it is checked balanced with order <= a, and a miss is an
    uncertified failure.
    """
    _check_order("balanced_separation_within", "a", a, 0)
    if _bounded_candidates(G.n, a) <= CANDIDATE_BUDGET:
        found = kernels.min_balanced_separation(G.n, G.adj_masks, min(a, G.n))
        if found is None:
            return SeparatorOracleOutcome(None, True)
        _, z_mask, a_mask = found
        return SeparatorOracleOutcome(_sides(G, z_mask, a_mask), True)
    return _cutter_balanced_within(G, a)


def _cutter_balanced_within(G: Graph, a: int) -> SeparatorOracleOutcome:
    """The first of the cutter's candidate separators Z with |Z| <= a whose
    components the exact search's greedy groups into a balanced separation.

    Deterministic, and no proof when it finds nothing: the failure is
    uncertified.
    """
    hi = (2 * G.n) // 3
    for z_mask in _cutter_candidates(G, a):
        if z_mask.bit_count() > a:
            continue
        comps = components_in(G.adj_masks, G.full_mask() & ~z_mask)
        weights = [c.bit_count() for c in comps]
        a_mask = kernels._greedy_a_side(z_mask, comps, weights, G.n - z_mask.bit_count() - hi, hi)
        if a_mask is not None:
            return SeparatorOracleOutcome(_sides(G, z_mask, a_mask), True)
    return SeparatorOracleOutcome(None, False)


def _cutter_candidates(G: Graph, a: int) -> Iterator[int]:
    """Candidate separators as masks, cheapest first: the empty set (enough
    when no component exceeds 2n/3), the centroid bag of a min-degree
    elimination forest (Bodlaender & Koster, Inf. & Comput. 2010), the
    first ceil(n/3) vertices (always balanced, so a >= n/3 never fails),
    then minimum cuts of order <= a between growing BFS balls around a
    pseudo-peripheral pair of the largest component, in the manner of
    FlowCutter (Hamann & Strasser, ACM JEA 2018)."""
    yield 0
    yield _min_degree_centroid_bag(G)
    yield (1 << -(-G.n // 3)) - 1
    largest = max(components_in(G.adj_masks, G.full_mask()), key=int.bit_count)
    s = _bfs_order(G, (largest & -largest).bit_length() - 1)[-1]
    order_s = _bfs_order(G, s)
    order_t = _bfs_order(G, order_s[-1])
    for f in range(1, 50):
        k = max(1, len(order_s) * f // 100)
        # the balls may overlap: their common vertices join the cut
        res = disjoint_paths(G, order_s[:k], order_t[:k], a + 1)
        if res.separator is not None:
            yield mask_of(res.separator)


def _min_degree_centroid_bag(G: Graph) -> int:
    """The bag {v} + N+(v) at the vertex-count centroid of the largest tree
    of G's min-degree elimination forest (``kernels.eliminate``), as a mask.
    Removing it cuts each child subtree of v off from the rest of the graph.
    """
    order, later, parent = kernels.eliminate(G.adj_masks)
    size = [1] * G.n
    children: list[list[int]] = [[] for _ in range(G.n)]
    for v in order:
        if parent[v] >= 0:
            size[parent[v]] += size[v]
            children[parent[v]].append(v)
    v = max((u for u in range(G.n) if parent[u] < 0), key=size.__getitem__)
    total = size[v]
    while True:
        heavy = next((c for c in children[v] if 2 * size[c] > total), None)
        if heavy is None:
            return later[v] | 1 << v
        v = heavy


def _bfs_order(G: Graph, s: int) -> list[int]:
    """Vertices of s's component in breadth-first order, neighbours
    ascending."""
    seen = [False] * G.n
    seen[s] = True
    order = [s]
    for v in order:
        for u in G.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return order


def separation_number(G: Graph) -> int:
    """Exact separation number: the subgraph maximum of the minimum
    balanced-separation order (induced subgraphs suffice;
    n <= EXACT_LIMIT_SEP_NUMBER)."""
    if G.n > EXACT_LIMIT_SEP_NUMBER:
        raise SizeLimitExceededError(G.n, EXACT_LIMIT_SEP_NUMBER, "separation_number")
    return kernels.separation_number(G.n, G.adj_masks)


def min_w_balanced_separation(G: Graph, W: Iterable[int]) -> Separation:
    """Minimum-order W-balanced separation (exhaustive;
    n <= EXACT_LIMIT_SEPARATION)."""
    W = _check_vertices(G, W)
    if G.n > EXACT_LIMIT_SEPARATION:
        raise SizeLimitExceededError(G.n, EXACT_LIMIT_SEPARATION, "min_w_balanced_separation")
    found = kernels.min_w_balanced_separation(G.n, G.adj_masks, mask_of(W), G.n)
    if found is None:
        raise PostconditionFailedError(
            "min_w_balanced_separation: no W-balanced separation, "
            "although (V, V) is one"
        )
    _, z_mask, a_mask = found
    return _separation_of(_sides(G, z_mask, a_mask))


# collections.abc.Callable, not typing.Callable: typing caches subscripted
# aliases, and its cache would keep every re-imported copy of the package alive
Oracle = Callable[[Graph], SeparatorOracleOutcome]


def make_oracle(a: int) -> Oracle:
    """The default oracle of separation_tree / construct:
    ``balanced_separation_within(H, a)`` for each graph H it is handed, exact
    within the candidate budget and the cutter past it."""
    _check_order("make_oracle", "a", a, 0)

    def oracle(H: Graph) -> SeparatorOracleOutcome:
        return balanced_separation_within(H, a)

    return oracle
